package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync"
	"time"
)

// clients is the closed-loop concurrency of every timed phase: one
// client per processor of the 2-core box the benchmark is sized for,
// each waiting for its reply before sending its next request.
const clients = 2

// wireAnswer and the two response types are the client's view of the
// /v1 wire format: only the fields the oracle check reads.
type wireAnswer struct {
	Source    int      `json:"source"`
	Target    int      `json:"target"`
	Reachable bool     `json:"reachable"`
	Cost      *float64 `json:"cost"`
}

type queryResponse struct {
	Answers []wireAnswer `json:"answers"`
}

type batchResponse struct {
	Results []struct {
		Response *queryResponse `json:"response"`
	} `json:"results"`
}

// costMatches compares an answer with the oracle. NaN means the pair
// was not sampled: any reachable, finite answer passes.
func costMatches(reachable bool, cost, want float64) bool {
	switch {
	case math.IsNaN(want):
		return reachable && !math.IsInf(cost, 0) && !math.IsNaN(cost)
	case math.IsInf(want, 1):
		return !reachable
	}
	return reachable && math.Abs(cost-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// checkRead counts the pairs of one read response that agree with the
// oracle.
func checkRead(o *op, status int, body []byte) (pairsOK int) {
	if status != http.StatusOK {
		return 0
	}
	var answers []wireAnswer
	if o.path == "/v1/batch" {
		var br batchResponse
		if json.Unmarshal(body, &br) != nil || len(br.Results) != len(o.pairs) {
			return 0
		}
		for _, item := range br.Results {
			if item.Response == nil || len(item.Response.Answers) != 1 {
				return 0
			}
			answers = append(answers, item.Response.Answers[0])
		}
	} else {
		var qr queryResponse
		if json.Unmarshal(body, &qr) != nil || len(qr.Answers) != 1 {
			return 0
		}
		answers = qr.Answers
	}
	for i, a := range answers {
		cost := math.Inf(1)
		if a.Cost != nil {
			cost = *a.Cost
		}
		if a.Source == o.pairs[i][0] && a.Target == o.pairs[i][1] && costMatches(a.Reachable, cost, o.want[i]) {
			pairsOK++
		}
	}
	return pairsOK
}

// phase is what one driven pass over an op list observed.
type phase struct {
	readMS, writeMS []float64
	attempted       int // ops sent
	failed          int // ops with a transport error, a non-200 status or a wrong answer
	pairsOK         int // oracle-correct (source, target) answers
	elapsed         time.Duration
}

func (p *phase) merge(q phase) {
	p.readMS = append(p.readMS, q.readMS...)
	p.writeMS = append(p.writeMS, q.writeMS...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.pairsOK += q.pairsOK
	p.elapsed += q.elapsed
}

// scale turns the phase's wall-clock times into reference-machine times
// (see calib.go).
func (p *phase) scale(f float64) {
	for i := range p.readMS {
		p.readMS[i] *= f
	}
	for i := range p.writeMS {
		p.writeMS[i] *= f
	}
	p.elapsed = time.Duration(float64(p.elapsed) * f)
}

// post sends one request on the client's keep-alive connection and
// reads the whole reply, so the latency covers the full response and
// the connection is reusable.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// drive sends ops closed-loop from n clients, one keep-alive connection
// per client and server: client c takes slots c, c+n, ... . With
// d == 0 every op is sent exactly once; otherwise the clients cycle
// through the list until d has passed. Reads rotate over the servers,
// writes go to the first (which fans them out in a cluster).
func drive(urls []string, ops []op, n int, d time.Duration) phase {
	if len(ops) == 0 {
		return phase{}
	}
	start := time.Now()
	parts := make([]phase, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr, Timeout: time.Minute}
			p := &parts[c]
			for i := c; ; i += n {
				if i >= len(ops) {
					if d == 0 {
						return
					}
					i %= len(ops)
				}
				if d > 0 && time.Since(start) >= d {
					return
				}
				o := &ops[i]
				url := urls[0]
				if !o.write {
					url = urls[i%len(urls)]
				}
				t0 := time.Now()
				status, body, err := post(hc, url+o.path, o.body)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				p.attempted++
				failed := err != nil || status != http.StatusOK
				if o.write {
					p.writeMS = append(p.writeMS, ms)
				} else if err == nil {
					p.readMS = append(p.readMS, ms)
					ok := checkRead(o, status, body)
					p.pairsOK += ok
					failed = ok != len(o.pairs)
				}
				if failed {
					if p.failed++; p.failed <= 3 {
						logf("failed op %d: %s %s -> status %d, error %v, want %v, got %.300s", i, o.path, o.body, status, err, o.want, body)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	var out phase
	for _, p := range parts {
		out.merge(p)
	}
	out.elapsed = time.Since(start)
	return out
}
