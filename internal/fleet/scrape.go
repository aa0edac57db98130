package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
)

// maxScrapeBytes bounds how much exposition a single scrape will buffer;
// a healthy schedinspector process renders a few KiB.
const maxScrapeBytes = 8 << 20

// Client scrapes Prometheus text expositions over HTTP.
type Client struct {
	// HTTP is the underlying client; a zero Client uses a private one so
	// scrapes never share (or pollute) http.DefaultClient's pool.
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{}
}

// Scrape fetches and parses one exposition. The context bounds the
// request.
func (c *Client) Scrape(ctx context.Context, url string) (*Scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxScrapeBytes+1))
	if err != nil {
		return nil, fmt.Errorf("fleet: read %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: scrape %s: status %s", url, resp.Status)
	}
	if len(body) > maxScrapeBytes {
		return nil, fmt.Errorf("fleet: scrape %s: exposition exceeds %d bytes", url, maxScrapeBytes)
	}
	return ParseProm(body)
}
