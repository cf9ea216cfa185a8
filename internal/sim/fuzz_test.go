package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
)

// fuzzBytes hands out the fuzzer's input one field at a time; an
// exhausted input reads as zeros, so every byte string decodes.
type fuzzBytes []byte

func (b *fuzzBytes) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *fuzzBytes) uint64() uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = b.byte()
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// fuzzCase is one decoded engine-equivalence configuration.
type fuzzCase struct {
	g    *graph.Graph
	spec mis.Spec
	opts Options
	seed uint64
}

// decodeFuzzCase turns arbitrary bytes into a small graph (n ≤ 200),
// an algorithm, a BeepLoss, a fault spec, wake schedule or crash
// schedule, a shard count in 1–4, and a seed.
func decodeFuzzCase(data []byte) fuzzCase {
	in := fuzzBytes(data)
	var c fuzzCase
	n := 1 + int(in.byte())%200
	graphSeed := in.uint64()
	switch in.byte() % 4 {
	case 0:
		c.g = graph.GNP(n, float64(in.byte())/255, rng.New(graphSeed))
	case 1:
		c.g = graph.Grid(1+n/15, 1+n%15)
	case 2:
		c.g = graph.UnitDisk(n, 0.02+float64(in.byte())/512, rng.New(graphSeed))
	default:
		c.g = graph.GNP(n, 0.02, rng.New(graphSeed))
	}
	n = c.g.N()

	algos := []mis.Spec{
		{Name: mis.NameFeedback},
		{Name: mis.NameGlobalSweep},
		{Name: mis.NameAfek},
		{Name: mis.NameFixed, FixedP: 0.1 + float64(in.byte()%8)/10},
	}
	c.spec = algos[int(in.byte())%len(algos)]
	c.opts.MaxRounds = 300 + int(in.byte())
	if b := in.byte(); b%3 != 0 {
		c.opts.BeepLoss = float64(b%128) / 256
	}
	c.opts.Shards = 1 + int(in.byte())%4
	c.seed = in.uint64()

	node := func() int { return int(in.byte()) % n }
	round := func() int { return 1 + int(in.byte())%30 }
	switch in.byte() % 6 {
	case 1: // channel noise
		c.opts.Faults = &fault.Spec{Loss: float64(in.byte()%64) / 256, Spurious: float64(in.byte()%32) / 256}
	case 2: // adversarial or uniform wake schedule
		kind := fault.WakeUniform
		if in.byte()%2 == 1 {
			kind = fault.WakeDegree
		}
		c.opts.Faults = &fault.Spec{Wake: &fault.Wake{Kind: kind, Window: 1 + int(in.byte())%20}}
	case 3: // an explicit per-node wake vector
		c.opts.WakeAt = make([]int, n)
		for v := range c.opts.WakeAt {
			c.opts.WakeAt[v] = int(in.byte()) % 16
		}
	case 4: // outages with both recovery kinds
		var outs []fault.Outage
		for i := int(in.byte()) % 4; i >= 0; i-- {
			outs = append(outs, fault.Outage{Node: node(), From: round(), For: 1 + int(in.byte())%6, Reset: in.byte()%2 == 1})
		}
		c.opts.Faults = &fault.Spec{Outages: outs}
	case 5: // crashes
		c.opts.CrashAtRound = map[int][]int{}
		for i := int(in.byte()) % 4; i >= 0; i-- {
			r := round()
			c.opts.CrashAtRound[r] = append(c.opts.CrashAtRound[r], node())
		}
	}
	return c
}

// FuzzEngines is the differential engine fuzzer: for every decoded
// configuration the scalar oracle, both engines with and without the
// algorithm's kernel, and RunCSR on both engines must return equal
// Results and equal errors. Loss-free runs without outages or crashes
// that terminate must also yield a maximal independent set.
func FuzzEngines(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x40\x01\x02\x03\x04\x05\x06\x07\x08\x00\x80\x00\x00\x10\x05\x02"))
	f.Add([]byte("\xc7\x09\x00\x00\x00\x00\x00\x00\x00\x01\x00\x01\x20\x07\x03\x00\x00\x00\x00\x00\x00\x00\x01\x04\x02\x03\x05\x01\x04\x02\x08\x00\x07\x01"))
	f.Add([]byte("\x63\x11\x22\x33\x44\x55\x66\x77\x88\x02\x30\x03\x02\x40\x41\x02\x99\x00\x00\x00\x00\x00\x00\x00\x05\x04\x01\x09\x02\x06"))
	f.Add([]byte("\x20\x05\x00\x00\x00\x00\x00\x00\x00\x00\xff\x00\x00\x00\x01\x03\x2a\x00\x00\x00\x00\x00\x00\x00\x02\x01\x0c"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFuzzCase(data)
		factory, bulk, err := mis.NewFactories(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := runOracle(c.g, factory, rng.New(c.seed), c.opts)
		check := func(name string, got *Result, err error) {
			t.Helper()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: err %v, oracle err %v", name, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s differs from the oracle:\n got %+v\nwant %+v", name, got, want)
			}
		}
		for _, engine := range []Engine{EngineColumnar, EngineSparse} {
			for _, b := range []bool{false, true} {
				opts := c.opts
				opts.Engine = engine
				if b {
					opts.Bulk = bulk
				}
				name := fmt.Sprintf("%v/bulk=%v", engine, opts.Bulk != nil)
				got, err := Run(c.g, factory, rng.New(c.seed), opts)
				check(name, got, err)
				got, err = RunCSR(c.g.CSR(), factory, rng.New(c.seed), opts)
				check("RunCSR "+name, got, err)
			}
		}
		if wantErr != nil && !errors.Is(wantErr, ErrTooManyRounds) {
			return
		}
		lossFree := c.opts.BeepLoss == 0 && (c.opts.Faults == nil || c.opts.Faults.Loss == 0)
		if lossFree && len(c.opts.CrashAtRound) == 0 && (c.opts.Faults == nil || len(c.opts.Faults.Outages) == 0) && want.Terminated {
			if err := graph.VerifyMIS(c.g, want.InMIS); err != nil {
				t.Fatalf("loss-free run: %v", err)
			}
		}
	})
}
