package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/synth"
)

// encodeTrace returns n uops of the default synthetic stream in the
// binary trace format.
func encodeTrace(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, synth.MustNewStream(synth.DefaultParams()), n); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func openTemp(t *testing.T, data []byte) *FileSource {
	t.Helper()
	s, err := OpenFile(writeTemp(t, data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestFileSourceMatchesSliceSource(t *testing.T) {
	for _, n := range []int{1, blockRecords - 1, blockRecords, blockRecords + 1, 3*blockRecords + 7} {
		data := encodeTrace(t, n)
		uops, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		ref := NewSliceSource(uops)
		src := openTemp(t, data)
		if src.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, src.Len())
		}
		var want, got isa.Uop
		for i := 0; i < 3*n+5; i++ {
			ref.Next(&want)
			src.Next(&got)
			if got != want {
				t.Fatalf("n=%d: uop %d (lap %d):\nfile:  %+v\nslice: %+v", n, i, i/n, got, want)
			}
		}
		if err := src.Err(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestFileSourceRejectsLikeRead(t *testing.T) {
	good := encodeTrace(t, 3)
	for _, c := range []struct {
		name string
		data []byte
		want error
	}{
		{"empty file", nil, io.EOF},
		{"short header", good[:3], io.ErrUnexpectedEOF},
		{"bad magic", make([]byte, headerSize+recordSize), ErrBadMagic},
		{"bad version", append([]byte{0x31, 0x54, 0x43, 0x48, 9, 0, 0, 0}, good[headerSize:]...), ErrBadVersion},
		{"truncated", good[:len(good)-10], io.ErrUnexpectedEOF},
	} {
		_, rerr := Read(bytes.NewReader(c.data))
		_, oerr := OpenFile(writeTemp(t, c.data))
		if !errors.Is(oerr, c.want) || rerr == nil || oerr.Error() != rerr.Error() {
			t.Errorf("%s: OpenFile error %v, Read error %v, want %v from both", c.name, oerr, rerr, c.want)
		}
	}

	// A header-only file is a valid trace of no records.
	uops, err := Read(bytes.NewReader(good[:headerSize]))
	if err != nil || len(uops) != 0 {
		t.Fatalf("Read of header-only trace: %d uops, %v", len(uops), err)
	}
	if s := openTemp(t, good[:headerSize]); s.Len() != 0 {
		t.Errorf("header-only Len = %d", s.Len())
	}
}

// failingReader is an io.ReadSeeker that fails every read once more than
// budget bytes have been read through it.
type failingReader struct {
	*bytes.Reader
	budget int
}

var errInjected = errors.New("injected read failure")

func (f *failingReader) Read(p []byte) (int, error) {
	if len(p) > f.budget {
		return 0, errInjected
	}
	n, err := f.Reader.Read(p)
	f.budget -= n
	return n, err
}

func TestFileSourceReadErrorIsSticky(t *testing.T) {
	const n = 3*blockRecords + 7
	data := encodeTrace(t, n)
	// Header, one lap, and one block of the second lap read fine.
	budget := len(data) + blockRecords*recordSize
	s, err := NewFileSource(&failingReader{Reader: bytes.NewReader(data), budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	var calls []error
	s.OnError = func(err error) { calls = append(calls, err) }
	var u isa.Uop
	for i := 0; i < n+blockRecords; i++ {
		s.Next(&u)
	}
	if s.Err() != nil || len(calls) != 0 {
		t.Fatalf("failed early: %v", s.Err())
	}
	for i := 0; i < 3*n; i++ {
		s.Next(&u)
		if u.Seq != uint64(n+blockRecords+i) {
			t.Fatalf("Seq = %d after failure, want %d", u.Seq, n+blockRecords+i)
		}
	}
	if !errors.Is(s.Err(), errInjected) {
		t.Fatalf("Err = %v, want the injected failure", s.Err())
	}
	if len(calls) != 1 || calls[0] != s.Err() {
		t.Errorf("OnError calls = %v, want one with %v", calls, s.Err())
	}
}

func TestFileSourceSizeChangeBetweenLaps(t *testing.T) {
	const n = blockRecords + 5
	data := encodeTrace(t, n)
	for name, change := range map[string]func(*os.File) error{
		"grown": func(f *os.File) error {
			_, err := f.WriteAt(data[headerSize:headerSize+recordSize], int64(len(data)))
			return err
		},
		"shrunk": func(f *os.File) error { return f.Truncate(int64(len(data) - recordSize)) },
	} {
		path := writeTemp(t, data)
		s, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var u isa.Uop
		for i := 0; i < n; i++ {
			s.Next(&u)
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := change(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		s.Next(&u)
		if !errors.Is(s.Err(), ErrFileChanged) {
			t.Errorf("%s: Err = %v, want ErrFileChanged", name, s.Err())
		}
	}
}

func TestReadPresizes(t *testing.T) {
	const n = 3*blockRecords + 7
	data := encodeTrace(t, n)
	f, err := os.Open(writeTemp(t, data))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, r := range map[string]io.Reader{"bytes.Reader": bytes.NewReader(data), "os.File": f} {
		uops, err := Read(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(uops) != n || cap(uops) != n {
			t.Errorf("%s: len %d cap %d, want both %d", name, len(uops), cap(uops), n)
		}
	}
}

// TestFileSourceAfterClose replays a trace through a FileSource opened
// after another one was closed, which typically decodes into the closed
// source's pooled buffers, and interleaves whole-trace Reads that draw
// from the same pool. The replay must match trace.Read's over several
// laps.
func TestFileSourceAfterClose(t *testing.T) {
	first := encodeTrace(t, 2*blockRecords+5)
	other := synth.DefaultParams()
	other.Seed = 7
	var buf bytes.Buffer
	if err := Write(&buf, synth.MustNewStream(other), blockRecords+300); err != nil {
		t.Fatal(err)
	}
	second := buf.Bytes()

	var want, got isa.Uop
	old := openTemp(t, first)
	for range blockRecords + 10 {
		old.Next(&got)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	uops, err := Read(bytes.NewReader(second))
	if err != nil {
		t.Fatal(err)
	}
	ref := NewSliceSource(uops)
	src, err := NewFileSource(bytes.NewReader(second))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	n := src.Len()
	for i := 0; i < 3*n+5; i++ {
		if i%n == n/2 {
			if _, err := Read(bytes.NewReader(first)); err != nil {
				t.Fatal(err)
			}
		}
		ref.Next(&want)
		src.Next(&got)
		if got != want {
			t.Fatalf("uop %d (lap %d):\nfile:  %+v\nslice: %+v", i, i/n, got, want)
		}
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFileSourcePoolConcurrent opens, replays and closes sources of
// different traces from several goroutines at once, so pooled buffers
// pass between goroutines; under -race this also checks the hand-offs.
func TestFileSourcePoolConcurrent(t *testing.T) {
	const workers = 4
	var wg sync.WaitGroup
	for g := range workers {
		p := synth.DefaultParams()
		p.Seed = int64(g + 1)
		var buf bytes.Buffer
		if err := Write(&buf, synth.MustNewStream(p), blockRecords+50*g+1); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		uops, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var want, got isa.Uop
			for range 10 {
				src, err := NewFileSource(bytes.NewReader(data))
				if err != nil {
					t.Error(err)
					return
				}
				ref := NewSliceSource(uops)
				for i := 0; i < 2*len(uops)+3; i++ {
					ref.Next(&want)
					src.Next(&got)
					if got != want {
						t.Errorf("trace %d: uop %d differs", g, i)
						src.Close()
						return
					}
				}
				src.Close()
			}
		}()
	}
	wg.Wait()
}
