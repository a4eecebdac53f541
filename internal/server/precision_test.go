package server

// Test of the X-Precision answer: scoring is always float64, so a request
// asking for float32 is answered "X-Precision: float64" with a body
// byte-identical to the same request without the header — on a single
// node and through a forwarding serving group, which relays the header
// both ways.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"
)

// postPrecision posts body to url with the given X-Precision value (none
// when empty) and returns the response's X-Precision and X-RPC-Served-By
// headers and its raw body.
func postPrecision(t *testing.T, url, body, precision string) (prec, servedBy string, raw []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if precision != "" {
		req.Header.Set("X-Precision", precision)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, raw)
	}
	return resp.Header.Get("X-Precision"), resp.Header.Get("X-RPC-Served-By"), raw
}

func TestPrecisionFloat32AnsweredFloat64(t *testing.T) {
	const body = `{"rows":[[0.5,1.1,2.9],[5.0,2.3,2.0],[9.5,5.8,1.1],[3.3,2.0,2.4]]}`
	// check runs one subtest per endpoint. Each asks every node in
	// baseURLs for float32 (any case) and for an unknown precision, against
	// the header-less answer, and adds to forwarded how many of the answers
	// another node served.
	check := func(t *testing.T, baseURLs ...string) (forwarded int) {
		t.Helper()
		for _, ep := range []string{"score", "rank"} {
			t.Run(ep, func(t *testing.T) {
				for _, baseURL := range baseURLs {
					url := baseURL + "/v1/models/prec-v1/" + ep
					prec, _, ref := postPrecision(t, url, body, "")
					if prec != "" {
						t.Fatalf("%s without X-Precision got X-Precision %q in the response", url, prec)
					}
					for _, ask := range []string{"float32", "FLOAT32", "float16"} {
						want := "float64"
						if ask == "float16" {
							want = "" // unknown values are ignored, never an error
						}
						prec, servedBy, got := postPrecision(t, url, body, ask)
						if prec != want {
							t.Fatalf("%s with X-Precision %s: response X-Precision %q, want %q", url, ask, prec, want)
						}
						if !bytes.Equal(got, ref) {
							t.Fatalf("%s with X-Precision %s: body differs from the header-less request:\n%s\nvs\n%s", url, ask, got, ref)
						}
						if servedBy != "" {
							forwarded++
						}
					}
				}
			})
		}
		return forwarded
	}

	t.Run("single", func(t *testing.T) {
		_, ts := newTestServer(t, t.TempDir())
		fitModel(t, ts, "prec")
		check(t, ts.URL)
	})

	t.Run("group", func(t *testing.T) {
		nodes := newStormCluster(t, 2)
		for i, nd := range nodes {
			waitForCondition(t, 3*time.Second, fmt.Sprintf("node %d to see its peer", i), func() bool {
				up, _ := nd.cl.PeerCounts()
				return up == 1
			})
		}
		fitStormModel(t, nodes[0].url, "prec")
		for i, nd := range nodes {
			waitForCondition(t, 3*time.Second, fmt.Sprintf("prec-v1 on node %d", i), func() bool {
				_, err := nd.reg.GetMeta("prec-v1")
				return err == nil
			})
		}
		forwarded := check(t, nodes[0].url, nodes[1].url)
		// The rendezvous owner serves locally; the other node forwards.
		if forwarded == 0 {
			t.Fatal("no request crossed the forward hop; the group check exercised no relay")
		}
	})
}
