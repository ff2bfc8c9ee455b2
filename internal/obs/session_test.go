package obs

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeAnswersThenStops: serve answers on a listener until its context
// ends, then returns nil (Finish's -listen path, whose context SIGINT or
// SIGTERM ends).
func TestServeAnswersThenStops(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("liteflow_test_total", "a test counter").Add(3)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- serve(ctx, ln, NewHTTPHandler(reg, nil, nil)) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(body), "liteflow_test_total 3") {
		t.Fatalf("/metrics = %q, %v; want the counter", body, err)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Errorf("serve after cancel = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after its context ended")
	}
}
