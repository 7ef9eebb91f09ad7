package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func mapSquares(t *testing.T, pool *Pool, n int) []float64 {
	t.Helper()
	out, err := Map(context.Background(), pool, "squares", n,
		func(ctx context.Context, shard int, seed uint64) (float64, error) {
			return float64(seed%1000) * float64(shard), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// shortBackend returns fewer results than specs without any error — a
// broken backend Map must refuse rather than hand back zero-filled data.
type shortBackend struct{ inner *LocalBackend }

func (s *shortBackend) Name() string { return "short" }
func (s *shortBackend) Close() error { return nil }

func (s *shortBackend) Run(ctx context.Context, specs []CellSpec) ([]CellResult, error) {
	res, err := s.inner.Run(ctx, specs)
	if err != nil || len(res) == 0 {
		return res, err
	}
	return res[:len(res)-1], nil
}

func TestMapRejectsMissingShards(t *testing.T) {
	pool := NewPool(1, 1)
	pool.SetBackend(&shortBackend{inner: NewLocalBackend(1)})
	_, err := Map(context.Background(), pool, "short", 4,
		func(ctx context.Context, shard int, seed uint64) (int, error) { return shard, nil })
	if err == nil || !strings.Contains(err.Error(), "no result for shard") {
		t.Fatalf("err = %v, want a missing-shard refusal", err)
	}
}

func TestLocalBackendStats(t *testing.T) {
	pool := NewPool(2, 5)
	mapSquares(t, pool, 10)
	sr, ok := pool.Backend().(StatsReporter)
	if !ok {
		t.Fatal("local backend does not report stats")
	}
	stats := sr.BackendStats()
	if len(stats) != 1 || stats[0].Backend != "local" || stats[0].Cells != 10 || stats[0].Retries != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestCellResultWireRoundTrip pins the wire encoding: values survive
// JSON exactly and context cancellation survives as errors.Is.
func TestCellResultWireRoundTrip(t *testing.T) {
	type payload struct {
		F float64
		U uint64
	}
	in := CellResult{Shard: 3, value: payload{F: 0.1 + 0.2, U: ^uint64(0)}, hasValue: true}
	in.encodeWire()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out CellResult
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := decodeInto(&out, &got); err != nil {
		t.Fatal(err)
	}
	if got != (payload{F: 0.1 + 0.2, U: ^uint64(0)}) {
		t.Errorf("payload round-trip = %+v", got)
	}

	canceled := CellResult{Shard: 1, err: fmt.Errorf("cell: %w", context.Canceled)}
	canceled.encodeWire()
	b, err = json.Marshal(canceled)
	if err != nil {
		t.Fatal(err)
	}
	var out2 CellResult
	if err := json.Unmarshal(b, &out2); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(out2.CellErr(), context.Canceled) {
		t.Errorf("cancellation lost in wire round-trip: %v", out2.CellErr())
	}
}
