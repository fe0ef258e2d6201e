package grid

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestPeerAuthVerify pins the MAC scheme property by property: a valid
// signature roundtrips, and every field the MAC covers — secret,
// timestamp, method, path, body — rejects when tampered.
func TestPeerAuthVerify(t *testing.T) {
	const secret = "s3cr3t"
	now := time.Now()
	body := []byte(`{"peer":"http://a"}`)
	sig := signPeerAuth(secret, http.MethodPost, pathPeerAnnounce, body, now)

	cases := []struct {
		name         string
		secret, hdr  string
		method, path string
		body         []byte
		at           time.Time
		wantErr      error
		wantOK       bool
	}{
		{"roundtrip", secret, sig, http.MethodPost, pathPeerAnnounce, body, now, nil, true},
		{"skewed within window", secret, sig, http.MethodPost, pathPeerAnnounce, body, now.Add(peerAuthSkew / 2), nil, true},
		{"missing header", secret, "", http.MethodPost, pathPeerAnnounce, body, now, errAuthMissing, false},
		{"malformed header", secret, "what=ever", http.MethodPost, pathPeerAnnounce, body, now, errAuthMalformed, false},
		{"wrong secret", "other", sig, http.MethodPost, pathPeerAnnounce, body, now, errAuthMismatch, false},
		{"tampered body", secret, sig, http.MethodPost, pathPeerAnnounce, []byte(`{"peer":"http://evil"}`), now, errAuthMismatch, false},
		{"lifted onto another path", secret, sig, http.MethodPost, pathPeerSteal, body, now, errAuthMismatch, false},
		{"lifted onto another method", secret, sig, http.MethodGet, pathPeerAnnounce, body, now, errAuthMismatch, false},
		{"replayed after the window", secret, sig, http.MethodPost, pathPeerAnnounce, body, now.Add(peerAuthSkew + time.Second), errAuthExpired, false},
		{"from the future", secret, sig, http.MethodPost, pathPeerAnnounce, body, now.Add(-peerAuthSkew - time.Second), errAuthExpired, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := verifyPeerAuth(c.secret, c.hdr, c.method, c.path, c.body, c.at)
			if c.wantOK && err != nil {
				t.Fatalf("verify failed: %v", err)
			}
			if !c.wantOK && err != c.wantErr {
				t.Fatalf("got %v, want %v", err, c.wantErr)
			}
		})
	}
}

// TestPeerAuthHTTPRejects armour-tests the seam over real HTTP: every
// peer-protocol and store endpoint of a secreted member answers 403 to
// an unsigned request (and counts it), while a correctly signed request
// passes — and a MAC lifted from one path cannot open another.
func TestPeerAuthHTTPRejects(t *testing.T) {
	const secret = "fed-secret"
	l, url := fedListen(t)
	m := startFedMember(t, NewServer(WithLeaseTTL(200*time.Millisecond), WithPeerSecret(secret)), l, url, nil)

	protected := []struct {
		method, path string
		body         string
	}{
		{http.MethodPost, pathPeerAnnounce, `{"peer":"http://intruder"}`},
		{http.MethodGet, pathPeerStatus, ""},
		{http.MethodPost, pathPeerSteal, `{"peer":"http://intruder","max":4}`},
		{http.MethodPost, pathPeerRelease, `{"peer":"http://intruder","id":"t1","attempt":1}`},
		{http.MethodGet, pathStoreGet + "?hash=sha256:00", ""},
		{http.MethodPost, pathStorePut + "?hash=sha256:00", "payload"},
		{http.MethodGet, pathStoreStat, ""},
	}
	for i, p := range protected {
		req, err := http.NewRequest(p.method, url+p.path, bytes.NewReader([]byte(p.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s %s unsigned: status %d, want 403", p.method, p.path, resp.StatusCode)
		}
		if got := m.srv.Metrics().PeerAuthRejected; got != uint64(i+1) {
			t.Errorf("after %s %s: PeerAuthRejected = %d, want %d", p.method, p.path, got, i+1)
		}
	}

	// A MAC minted for one path must not open another, even fresh.
	lifted := signPeerAuth(secret, http.MethodGet, pathStoreStat, nil, time.Now())
	req, _ := http.NewRequest(http.MethodGet, url+pathPeerStatus, nil)
	req.Header.Set(PeerAuthHeader, lifted)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("cross-path replay: status %d, want 403", resp.StatusCode)
	}

	// The real signature passes, both hand-rolled and via Client.
	req, _ = http.NewRequest(http.MethodGet, url+pathPeerStatus, nil)
	req.Header.Set(PeerAuthHeader, signPeerAuth(secret, http.MethodGet, pathPeerStatus, nil, time.Now()))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("signed peer status: status %d, want 200", resp.StatusCode)
	}
	client := &Client{Server: url, PeerSecret: secret}
	if _, err := client.PeerStatus(context.Background()); err != nil {
		t.Errorf("Client.PeerStatus with secret: %v", err)
	}

	// The operator/worker surfaces stay open: no secret on /metrics,
	// /healthz or the batch endpoint.
	for _, path := range []string{pathMetrics, pathHealthz} {
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("open endpoint %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestFederationAuthedEndToEnd runs the full steal + shared-result path
// with every member armed with the same secret: signed gossip converges
// and stolen work flows exactly as in the open-seam tests.
func TestFederationAuthedEndToEnd(t *testing.T) {
	const secret = "ring-secret"
	listeners := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range listeners {
		listeners[i], urls[i] = fedListen(t)
	}
	members := make([]*fedMember, 2)
	for i := range members {
		peers := []string{urls[1-i]}
		members[i] = startFedMember(t,
			NewServer(WithLeaseTTL(200*time.Millisecond), WithPeerSecret(secret)),
			listeners[i], urls[i], peers)
	}
	loaded, idle := members[0], members[1]
	startWorker(t, idle.url, echoExec, 4)

	var tasks []Task
	for i := 0; i < 6; i++ {
		tasks = append(tasks, mkTask(fmt.Sprintf("a%d", i), fmt.Sprintf("authed-%d", i)))
	}
	client := &Client{Server: loaded.url}
	ch, err := client.Submit(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	results := collectResults(t, ch)
	if len(results) != len(tasks) {
		t.Fatalf("got %d results, want %d", len(results), len(tasks))
	}
	for _, task := range tasks {
		tr := results[task.ID]
		if tr.Err != "" || string(tr.Payload) != string(task.Payload) {
			t.Fatalf("task %s: err=%q payload=%q", task.ID, tr.Err, tr.Payload)
		}
	}
	if m := loaded.srv.Metrics(); m.StealsOut == 0 {
		t.Errorf("no steals crossed the authed seam (metrics %+v)", m)
	}
	if m := loaded.srv.Metrics(); m.PeerAuthRejected != 0 {
		t.Errorf("legitimate peer traffic rejected %d times", m.PeerAuthRejected)
	}
}

// TestFederationMixedSecretNoGossip pins the lockout: a member with the
// wrong secret can be seeded with a right-secret peer, but its announces
// are rejected — the mesh never adopts it and the rejections are
// counted.
func TestFederationMixedSecretNoGossip(t *testing.T) {
	la, ua := fedListen(t)
	a := startFedMember(t, NewServer(WithLeaseTTL(200*time.Millisecond), WithPeerSecret("right")), la, ua, nil)
	lb, ub := fedListen(t)
	b := startFedMember(t, NewServer(WithLeaseTTL(200*time.Millisecond), WithPeerSecret("wrong")), lb, ub, []string{ua})

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if a.srv.Metrics().PeerAuthRejected > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := a.srv.Metrics().PeerAuthRejected; got == 0 {
		t.Fatal("wrong-secret announces were never rejected")
	}
	if peers := a.fed.Peers(); len(peers) != 0 {
		t.Errorf("intruder gossiped into the mesh: %v", peers)
	}
	// And the intruder learned nothing back either: its only knowledge of
	// A is its own seed list, never confirmed by a status exchange.
	if st, err := b.fed.peerStatus(ua); err == nil {
		t.Errorf("wrong-secret status probe succeeded: %+v", st)
	}
}
