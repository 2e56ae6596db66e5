package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// httpClient talks to one server child over loopback through a pool of at
// most conns connections.
type httpClient struct {
	hc   *http.Client
	base string
}

func newHTTPClient(base string, conns int) *httpClient {
	return &httpClient{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		}},
	}
}

// close drops the pool's idle connections.
func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and full response body.
func (c *httpClient) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}

// getJSON fetches path and decodes a 200 answer into out.
func (c *httpClient) getJSON(ctx context.Context, path string, out any) ([]byte, error) {
	status, data, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return data, fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return data, fmt.Errorf("GET %s: decode: %w", path, err)
		}
	}
	return data, nil
}

// postJSON posts a pre-encoded body and decodes an answer with the wanted
// status into out.
func (c *httpClient) postJSON(ctx context.Context, path string, body []byte, want int, out any) error {
	status, data, err := c.do(ctx, http.MethodPost, path, body)
	if err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	if status != want {
		return fmt.Errorf("POST %s: status %d, want %d: %s", path, status, want, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("POST %s: decode: %w", path, err)
		}
	}
	return nil
}

// scoped returns the campaign-scoped route /v1/campaigns/{id}/{rest}.
func scoped(id, rest string) string { return "/v1/campaigns/" + id + "/" + rest }
