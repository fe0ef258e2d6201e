package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"repro/internal/isa"
)

// Binary trace format: an 8-byte header (magic + version) followed by
// fixed-size little-endian records. The format is self-contained so traces
// generated by cmd/tracegen can be replayed by any tool in the repository.

const (
	magic      = 0x48435431 // "HCT1"
	version    = 1
	headerSize = 8
	recordSize = 52
)

var (
	// ErrBadMagic reports a file that is not a helper-cluster trace.
	ErrBadMagic = errors.New("trace: bad magic")
	// ErrBadVersion reports an unsupported trace format version.
	ErrBadVersion = errors.New("trace: unsupported version")
)

// flag bits packed into the record's flags byte.
const (
	flagHasImm = 1 << iota
	flagReadsFlags
	flagWritesFlags
	flagTaken
	flagFrontendRes
	flagImplicitWide
)

func packRecord(buf *[recordSize]byte, u *isa.Uop) {
	le := binary.LittleEndian
	le.PutUint64(buf[0:], u.Seq)
	le.PutUint32(buf[8:], u.PC)
	buf[12] = uint8(u.Class)
	buf[13] = uint8(u.Op)
	buf[14] = u.NSrc
	buf[15] = u.SrcReg[0]
	buf[16] = u.SrcReg[1]
	buf[17] = u.SrcReg[2]
	buf[18] = u.DstReg
	var fl byte
	if u.HasImm {
		fl |= flagHasImm
	}
	if u.ReadsFlags {
		fl |= flagReadsFlags
	}
	if u.WritesFlags {
		fl |= flagWritesFlags
	}
	if u.Taken {
		fl |= flagTaken
	}
	if u.FrontendResolvable {
		fl |= flagFrontendRes
	}
	if u.ImplicitWide {
		fl |= flagImplicitWide
	}
	buf[19] = fl
	le.PutUint32(buf[20:], u.SrcVal[0])
	le.PutUint32(buf[24:], u.SrcVal[1])
	le.PutUint32(buf[28:], u.SrcVal[2])
	le.PutUint32(buf[32:], u.DstVal)
	le.PutUint32(buf[36:], u.Imm)
	le.PutUint32(buf[40:], u.Target)
	le.PutUint32(buf[44:], u.MemAddr)
	buf[48] = u.MemSize
	// bytes 49..51 reserved
}

func unpackRecord(buf *[recordSize]byte, u *isa.Uop) {
	le := binary.LittleEndian
	*u = isa.Uop{
		Seq:     le.Uint64(buf[0:]),
		PC:      le.Uint32(buf[8:]),
		Class:   isa.Class(buf[12]),
		Op:      isa.ALUOp(buf[13]),
		NSrc:    buf[14],
		DstReg:  buf[18],
		DstVal:  le.Uint32(buf[32:]),
		Imm:     le.Uint32(buf[36:]),
		Target:  le.Uint32(buf[40:]),
		MemAddr: le.Uint32(buf[44:]),
		MemSize: buf[48],
	}
	u.SrcReg[0], u.SrcReg[1], u.SrcReg[2] = buf[15], buf[16], buf[17]
	u.SrcVal[0] = le.Uint32(buf[20:])
	u.SrcVal[1] = le.Uint32(buf[24:])
	u.SrcVal[2] = le.Uint32(buf[28:])
	fl := buf[19]
	u.HasImm = fl&flagHasImm != 0
	u.ReadsFlags = fl&flagReadsFlags != 0
	u.WritesFlags = fl&flagWritesFlags != 0
	u.Taken = fl&flagTaken != 0
	u.FrontendResolvable = fl&flagFrontendRes != 0
	u.ImplicitWide = fl&flagImplicitWide != 0
}

// Write streams n uops from src to w in the binary trace format.
func Write(w io.Writer, src Source, n int) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var u isa.Uop
	var buf [recordSize]byte
	for i := 0; i < n; i++ {
		src.Next(&u)
		packRecord(&buf, &u)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// blockRecords is the number of records one read decodes: enough to
// amortize the read call, few enough that a replay's buffers stay at
// about a hundred kilobytes whatever the trace length.
const blockRecords = 1024

// decodeBlock unpacks the records in raw into dst, one per element.
func decodeBlock(dst []isa.Uop, raw []byte) {
	for i := range dst {
		unpackRecord((*[recordSize]byte)(raw[i*recordSize:]), &dst[i])
	}
}

// readHeader reads and checks the 8-byte trace header.
func readHeader(r io.Reader) error {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("trace: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return ErrBadMagic
	}
	if binary.LittleEndian.Uint32(hdr[4:]) != version {
		return ErrBadVersion
	}
	return nil
}

// recordErr reports a failed read of record i.
func recordErr(i int, err error) error {
	return fmt.Errorf("trace: reading record %d: %w", i, err)
}

// Read loads an entire binary trace from r. When r reports how many bytes
// it holds (a *bytes.Reader, or a regular *os.File) the result is
// allocated once at its final size.
func Read(r io.Reader) ([]isa.Uop, error) {
	if err := readHeader(r); err != nil {
		return nil, err
	}
	out := make([]isa.Uop, 0, recordsLeft(r))
	bufs := blockPool.Get().(*blockBufs)
	defer blockPool.Put(bufs)
	raw := bufs.raw
	for {
		k, err := io.ReadFull(r, raw)
		whole := k / recordSize
		n := len(out)
		out = slices.Grow(out, whole)[:n+whole]
		decodeBlock(out[n:], raw[:whole*recordSize])
		switch {
		case err == nil:
		case err == io.EOF, err == io.ErrUnexpectedEOF && k%recordSize == 0:
			return out, nil
		default:
			return nil, recordErr(len(out), err)
		}
	}
}

// recordsLeft returns the number of whole records left in r when r
// reports its length, else 0.
func recordsLeft(r io.Reader) int {
	var left int64
	switch v := r.(type) {
	case interface{ Len() int }:
		left = int64(v.Len())
	case *os.File:
		fi, err := v.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0
		}
		off, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0
		}
		left = fi.Size() - off
	}
	return int(max(left, 0) / recordSize)
}

// ErrFileChanged reports a trace file whose size changed while a
// FileSource was replaying it.
var ErrFileChanged = errors.New("trace: file changed during replay")

// FileSource replays a binary trace file cyclically, uop for uop and Seq
// for Seq what NewSliceSource over Read's result replays, but it holds one
// block of decoded records instead of the whole trace, so its memory does
// not grow with the trace length. Every lap re-reads the file from its
// first record, and every rewind re-checks the file's size.
//
// A read error, or a size change at a rewind, is sticky: Err reports it,
// OnError is called with it once, and from then on Next keeps cycling the
// last block it decoded, so the consumer can wind down before it checks
// Err. Such uops are not the trace's, and a run that drew them is void.
type FileSource struct {
	// OnError, if non-nil, is called once, from Next, with the first
	// error. A replay uses it to cancel the run that consumes the source.
	OnError func(error)

	r      io.ReadSeeker
	closer io.Closer // the file OpenFile opened; nil for NewFileSource
	size   int64     // size of the file at open, in bytes
	n      int       // records in one lap
	left   int       // records of the current lap not read yet
	bufs   *blockBufs
	buf    []isa.Uop // the decoded block Next is replaying
	idx    int       // next uop of buf
	seq    uint64
	err    error
}

// blockBufs is the storage for reading one block of records: its raw
// bytes and its decoded uops. A FileSource holds one from open to Close
// and Read borrows one while it runs; blockPool recycles them, so a warm
// replay allocates no per-block storage.
type blockBufs struct {
	raw []byte
	buf []isa.Uop
}

var blockPool = sync.Pool{New: func() any {
	return &blockBufs{
		raw: make([]byte, blockRecords*recordSize),
		buf: make([]isa.Uop, blockRecords),
	}
}}

// OpenFile opens a trace file for streaming replay. It fails with the
// errors Read would give for the same file. Close releases the file and
// the source's buffers.
func OpenFile(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := NewFileSource(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.closer = f
	return s, nil
}

// NewFileSource starts a streaming replay of the trace in rs, which must
// be positioned at its header. It checks the header and that the body is
// a whole number of records, failing with the errors Read would give, and
// decodes the first block. A trace with no records is valid (Len is 0),
// but Next must not be called on it.
func NewFileSource(rs io.ReadSeeker) (*FileSource, error) {
	if err := readHeader(rs); err != nil {
		return nil, err
	}
	size, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("trace: sizing: %w", err)
	}
	body := size - headerSize
	if body%recordSize != 0 {
		return nil, recordErr(int(body/recordSize), io.ErrUnexpectedEOF)
	}
	bufs := blockPool.Get().(*blockBufs)
	s := &FileSource{
		r:    rs,
		size: size,
		n:    int(body / recordSize),
		bufs: bufs,
		buf:  bufs.buf[:0],
	}
	if s.n == 0 {
		return s, nil
	}
	if err := s.fill(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Len returns the number of records in one lap of the trace.
func (s *FileSource) Len() int { return s.n }

// Err returns the error that stopped the replay, or nil.
func (s *FileSource) Err() error { return s.err }

// Close returns the source's block buffers to a pool shared by all
// FileSources, and closes the file OpenFile opened (a source built by
// NewFileSource leaves its reader open). The source must not be used
// after Close: another source may already be decoding into its buffers.
func (s *FileSource) Close() error {
	if s.bufs != nil {
		blockPool.Put(s.bufs)
		s.bufs, s.buf = nil, nil
	}
	if s.closer == nil {
		return nil
	}
	return s.closer.Close()
}

// Next implements Source by cyclic replay.
func (s *FileSource) Next(u *isa.Uop) {
	if s.idx == len(s.buf) {
		if s.err == nil {
			if err := s.fill(); err != nil {
				s.err = err
				if s.OnError != nil {
					s.OnError(err)
				}
			}
		}
		s.idx = 0
	}
	*u = s.buf[s.idx]
	u.Seq = s.seq
	s.seq++
	s.idx++
}

// fill decodes the next block of the lap into buf, rewinding to the first
// record when the lap is done. On error buf keeps the previous block.
func (s *FileSource) fill() error {
	if s.left == 0 {
		if err := s.rewind(); err != nil {
			return err
		}
	}
	k := min(s.left, blockRecords)
	raw := s.bufs.raw[:k*recordSize]
	if _, err := io.ReadFull(s.r, raw); err != nil {
		return recordErr(s.n-s.left, err)
	}
	s.buf = s.buf[:k]
	decodeBlock(s.buf, raw)
	s.left -= k
	return nil
}

// rewind seeks back to the first record, after checking that the file
// still has the size it had at open.
func (s *FileSource) rewind() error {
	size, err := s.r.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("trace: rewinding: %w", err)
	}
	if size != s.size {
		return fmt.Errorf("%w: %d bytes at open, %d now", ErrFileChanged, s.size, size)
	}
	if _, err := s.r.Seek(headerSize, io.SeekStart); err != nil {
		return fmt.Errorf("trace: rewinding: %w", err)
	}
	s.left = s.n
	return nil
}
