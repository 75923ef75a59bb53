package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts pins the connection bounds: header reads and
// idle keep-alives time out, while responses (the job streams) do not.
func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	s := newHTTPServer(h)
	if s.Handler != h {
		t.Error("handler not installed")
	}
	if s.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", s.ReadHeaderTimeout)
	}
	if s.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", s.IdleTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 so NDJSON/SSE streams are never cut", s.WriteTimeout)
	}
}
