package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sort"
	"strings"
	"time"
)

// The machine this benchmark was tuned on shares its cores with other
// tenants, and its speed moves by up to 2x over minutes: a run's raw times
// say as much about the neighbours as about the program. Each run therefore
// also times a fixed calibration unit built from the standard library only,
// never from the repository's code, next to the times it measures, and
// reports every end-to-end time multiplied by calibRefUs / (the unit time
// measured next to it): the time the run would have taken at the reference
// speed. A change to the program moves its times and not the unit, so it
// shows in full.

// calibRefUs is the calibration unit's typical time, in µs, on the reference
// box described in benchmark/README.md.
const calibRefUs = 1150.0

// calibrateEvery is how often the read loop stops to take a unit.
const calibrateEvery = 100 * time.Millisecond

// scaleOf is the factor that takes a time measured next to the given unit
// times to the reference speed: calibRefUs over their median; NaN for none.
func scaleOf(units []float64) float64 { return calibRefUs / median(units) }

// readScale is the scale of a read sent at offset at from its phase's start:
// that of the last unit taken before it and the first taken after it, or of
// the nearest unit at either end of the phase.
func (r *runner) readScale(at time.Duration) float64 {
	i := sort.Search(len(r.readCal), func(i int) bool { return r.readCal[i].d >= at })
	var units []float64
	for _, c := range r.readCal[max(i-1, 0):min(i+1, len(r.readCal))] {
		units = append(units, c.unitUs)
	}
	return scaleOf(units)
}

type calRecord struct {
	Name   string             `json:"name"`
	Values []int              `json:"values"`
	Scores map[string]float64 `json:"scores"`
}

// calibrator times the calibration unit. The unit is three kernels, each a
// kind of work the host does: JSON encoding and decoding; building, sorting
// and formatting a map's keys; and loopback HTTP round trips to a stub
// server. A unit's time is the geometric mean of the three kernels' times.
// There is no pure arithmetic kernel: a chain of integer multiplications
// slows down less than the program when the machine is contended, and
// adding it widened the read latencies' spread over two sets of ten runs
// per workload from a median of 0.047 to 0.065, and at worst from 0.12 to
// 0.15.
type calibrator struct {
	doc    []calRecord
	hs     *http.Server
	served chan error
	hc     *http.Client
	url    string
}

// newCalibrator builds the fixed inputs and starts the stub server; close
// stops it.
func newCalibrator() (*calibrator, error) {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{served: make(chan error, 1)}
	for i := 0; i < 50; i++ {
		c.doc = append(c.doc, calRecord{Name: fmt.Sprint(rng.Int63()), Values: rng.Perm(20),
			Scores: map[string]float64{"a": rng.Float64(), "b": rng.Float64()}})
	}
	body, err := json.Marshal(c.doc[:10])
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.url = "http://" + ln.Addr().String() + "/"
	c.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})}
	go func() { c.served <- c.hs.Serve(ln) }()
	c.hc = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return c, nil
}

func (c *calibrator) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := c.hs.Shutdown(ctx)
	if serr := <-c.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	c.hc.CloseIdleConnections()
	return err
}

// sample times one unit and returns its time in µs.
func (c *calibrator) sample() (float64, error) {
	logSum := 0.0
	kernels := []func() error{c.jsonKernel, c.mapKernel, c.httpKernel}
	for _, k := range kernels {
		t := time.Now()
		if err := k(); err != nil {
			return 0, fmt.Errorf("calibrate: %w", err)
		}
		logSum += math.Log(float64(time.Since(t).Nanoseconds()) / 1000)
	}
	return math.Exp(logSum / float64(len(kernels))), nil
}

// calSink keeps the kernels' results alive.
var calSink int

func (c *calibrator) jsonKernel() error {
	for range 2 {
		b, err := json.Marshal(c.doc)
		if err != nil {
			return err
		}
		var back []calRecord
		if err := json.Unmarshal(b, &back); err != nil {
			return err
		}
		calSink += len(back)
	}
	return nil
}

func (c *calibrator) mapKernel() error {
	rng := rand.New(rand.NewSource(2))
	m := map[int]string{}
	for len(m) < 5000 {
		m[rng.Intn(1<<20)] = "x"
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var sb strings.Builder
	for _, k := range keys[:500] {
		fmt.Fprintf(&sb, "%d,", k)
	}
	calSink += sb.Len()
	return nil
}

func (c *calibrator) httpKernel() error {
	for range 5 {
		resp, err := c.hc.Get(c.url)
		if err != nil {
			return err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		var back []calRecord
		if err := json.Unmarshal(b, &back); err != nil {
			return err
		}
		calSink += len(back)
	}
	return nil
}
