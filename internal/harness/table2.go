package harness

import (
	"fmt"
	"runtime"
	"time"

	"github.com/faircache/lfoc/internal/core"
	"github.com/faircache/lfoc/internal/policy"
	"github.com/faircache/lfoc/internal/workloads"
)

// Table2Row holds the average execution time — and, for the CI perf
// gate, the average heap allocations — of both partitioning algorithms
// for one workload size.
type Table2Row struct {
	Apps    int
	LFOCms  float64
	KPartms float64
	// LFOCAllocs and KPartAllocs are heap allocations per invocation
	// (runtime.MemStats.Mallocs deltas over the timing loop). Unlike the
	// millisecond columns they are essentially machine-independent,
	// which is what makes them a zero-tolerance regression signal.
	LFOCAllocs  float64
	KPartAllocs float64
}

// Table2Data reproduces Table 2: the execution-time comparison of LFOC's
// partitioning algorithm against KPart's for 4..11 applications. The
// reproduced claim is the orders-of-magnitude gap and its growth with n,
// not the absolute microsecond values of the authors' machine.
//
// LFOC's row times one reused core.Partitioner, the way the controller
// runs Algorithm 1, so it allocates nothing per call. Only that row
// reuses scratch: KPart allocates 223–736 objects per call, which is
// part of why the KPart/LFOC ratio is wider than when LFOC allocated too.
type Table2Data struct {
	Rows []Table2Row
}

// Table2 times both algorithms over random mixes of each size.
func Table2(cfg Config, itersPerSize int) (Table2Data, error) {
	cfg = cfg.normalized()
	if itersPerSize <= 0 {
		itersPerSize = 200
	}
	var out Table2Data
	for n := 4; n <= 11; n++ {
		w := workloads.RandomMix(int64(7000+n), n)
		sw := cfg.staticWorkload(w)

		// LFOC input: classified fixed-point app infos (the algorithm's
		// input in the kernel; classification happens separately).
		params := core.DefaultParams(cfg.Plat.Ways)
		infos := make([]core.AppInfo, n)
		for i, t := range sw.Tables {
			prof := policy.ProfileFromTable(t)
			infos[i] = core.AppInfo{ID: i, Class: core.Classify(prof, &params), Profile: prof}
		}

		// Time a warm session, as the controller holds one: the untimed
		// first call grows its buffers. An error surfaces in the loop,
		// which repeats the same input.
		var part core.Partitioner
		_, _ = part.Partition(infos, &params)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for it := 0; it < itersPerSize; it++ {
			if _, err := part.Partition(infos, &params); err != nil {
				return Table2Data{}, fmt.Errorf("table2: lfoc n=%d: %w", n, err)
			}
		}
		lfocMs := time.Since(start).Seconds() * 1000 / float64(itersPerSize)
		runtime.ReadMemStats(&ms1)
		lfocAllocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(itersPerSize)

		kp := policy.KPart{}
		runtime.ReadMemStats(&ms0)
		start = time.Now()
		for it := 0; it < itersPerSize; it++ {
			if _, err := kp.Decide(sw); err != nil {
				return Table2Data{}, fmt.Errorf("table2: kpart n=%d: %w", n, err)
			}
		}
		kpartMs := time.Since(start).Seconds() * 1000 / float64(itersPerSize)
		runtime.ReadMemStats(&ms1)
		kpartAllocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(itersPerSize)

		out.Rows = append(out.Rows, Table2Row{
			Apps:   n,
			LFOCms: lfocMs, KPartms: kpartMs,
			LFOCAllocs: lfocAllocs, KPartAllocs: kpartAllocs,
		})
	}
	return out, nil
}

// Render formats the table with the paper's row layout.
func (d Table2Data) Render() string {
	header := []string{"#Apps"}
	lfoc := []string{"LFOC (ms)"}
	kpart := []string{"KPart (ms)"}
	ratio := []string{"KPart/LFOC"}
	for _, r := range d.Rows {
		header = append(header, fmt.Sprint(r.Apps))
		lfoc = append(lfoc, fmt.Sprintf("%.5f", r.LFOCms))
		kpart = append(kpart, fmt.Sprintf("%.5f", r.KPartms))
		ratio = append(ratio, f1(r.KPartms/r.LFOCms))
	}
	return "Table 2: Average execution time (ms) of the KPart and LFOC algorithms\n" +
		renderTable([][]string{header, lfoc, kpart, ratio})
}
