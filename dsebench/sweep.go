package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"armdse/internal/dataset"
	"armdse/internal/fabric"
	"armdse/internal/obs"
	"armdse/internal/params"
)

// sweepWL is the paper's T1-T3 data collection: a fixed uniform exact
// sweep over the test suite. With fleet set the same index space is
// collected by an in-process coordinator and two single-thread HTTP
// workers instead, so the only extra work is leases, chunk uploads and the
// journal merge.
type sweepWL struct {
	fleet  bool
	qual   []rowRecord // rows of the first sizes.qualPasses passes
	ledger collectLedger
	fab    fabricLedger
}

// fabricLedger accumulates the fleet's per-layer samples over traced
// passes.
type fabricLedger struct {
	rpcSec           []float64
	upload, mergeSec float64
	grants, steals   float64
	busyFrac         []float64
}

func (w *sweepWL) setup(b *bench) error { return b.buildPrograms(b.spans) }

func (w *sweepWL) pass(b *bench, k int, tr *tracer) (passResult, error) {
	if w.fleet {
		return w.fleetPass(b, k, tr)
	}
	seed, n := passSeed(b.seed, k), b.sz.sweepConfigs
	out, err := b.collect(k, tr, collectSpec{
		name: "sweep", seed: seed, samples: n,
		meta: fmt.Sprintf("seed=%d samples=%d paper=false", seed, n),
	})
	if err != nil {
		return passResult{}, err
	}
	recs, runlogBytes, err := readRunlog(out.runlogPath)
	if err != nil {
		return passResult{}, err
	}
	b.checkStalls("sweep", k, recs, n)
	vlOf := vlIndex(out.rows)
	if k == 0 {
		if err := b.fingerprint(out.reg, recs, vlOf, out.csvPath); err != nil {
			return passResult{}, err
		}
	}
	if k < b.sz.qualPasses {
		w.qual = append(w.qual, out.rows...)
	}
	if tr != nil {
		l := &w.ledger
		l.passes++
		l.wall += out.wall
		l.putSec = append(l.putSec, out.putSec...)
		l.compactSec += out.compactSec
		l.journalBytes += float64(out.journalBytes)
		l.runlogBytes += float64(runlogBytes)
		l.addRunlog(b, recs, vlOf)
	}
	p := passResult{wall: out.wall, rows: out.data.Len(), failed: out.failed, attempts: n}
	for _, r := range out.rows {
		if !r.failed {
			p.insts += b.rowInsts(r.cfg)
		}
	}
	return p, nil
}

// fleetPass collects pass k's index space through the fabric: a fresh
// coordinator on a loopback listener, two RunWorkers of one simulation
// thread each, then Merge and the CSV write. The wall time covers all of
// it, coordinator start-up included.
func (w *sweepWL) fleetPass(b *bench, k int, tr *tracer) (passResult, error) {
	seed, n := passSeed(b.seed, k), b.sz.sweepConfigs
	dir, err := b.passDir(k)
	if err != nil {
		return passResult{}, err
	}
	out := filepath.Join(dir, "fleet.csv")
	root := tr.begin("fleet.pass", 0, int64(k))
	defer tr.end(root)

	t0 := time.Now()
	rj, err := obs.CreateJournal(out + ".runlog.jsonl")
	if err != nil {
		return passResult{}, err
	}
	defer rj.Close()
	coord, err := fabric.NewCoordinator(fabric.CoordConfig{
		Spec: fabric.NewSpec(seed, n, false), Out: out,
		LeaseSize: b.sz.leaseSize, Chunk: b.sz.leaseChunk, Runlog: rj,
	})
	if err != nil {
		return passResult{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return passResult{}, err
	}
	srv := &http.Server{Handler: coord.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	stopSweep := coord.StartExpirySweep(time.Second)
	defer stopSweep()

	inner := &http.Transport{MaxConnsPerHost: threads, MaxIdleConnsPerHost: threads}
	defer inner.CloseIdleConnections()
	tt := &timingTransport{inner: inner, tr: tr, parent: root}
	client := &http.Client{Transport: tt}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, threads)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := tr.begin("fabric.RunWorker", root, int64(i))
			defer tr.end(sp)
			errs[i] = fabric.RunWorker(ctx, fabric.WorkerConfig{
				Coord: "http://" + ln.Addr().String(), Name: fmt.Sprintf("w%d", i),
				Threads: 1, PollEvery: 20 * time.Millisecond, Client: client,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return passResult{}, fmt.Errorf("worker %d: %w", i, err)
		}
	}
	if err := coord.Wait(ctx); err != nil {
		return passResult{}, err
	}
	sp := tr.begin("fabric.Coordinator.Merge", root, int64(k))
	tm := time.Now()
	data, failed, err := coord.Merge()
	mergeSec := time.Since(tm).Seconds()
	if err == nil {
		err = data.SaveFile(out)
	}
	compactSec := time.Since(tm).Seconds()
	tr.end(sp)
	if err != nil {
		return passResult{}, err
	}
	wall := time.Since(t0).Seconds()

	journalBytes, err := b.checkFleetJournals(k, out+".fabric", n)
	if err != nil {
		return passResult{}, err
	}
	if err := coord.Cleanup(); err != nil {
		return passResult{}, err
	}
	if data.Len() != n || failed != 0 {
		b.failf("fleet pass %d: merged %d rows + %d failed, want %d rows", k, data.Len(), failed, n)
		return passResult{wall: wall, rows: data.Len(), failed: failed, attempts: n}, nil
	}
	rows := make([]rowRecord, n)
	for i := range rows {
		targets := map[string]float64{}
		for _, app := range b.apps {
			y, _ := data.Target(app) // apps come from the same suite as the spec
			targets[app] = y[i]
		}
		rows[i] = rowRecord{index: i, cfg: params.ConfigAt(seed, i), targets: targets}
	}
	if k == 0 {
		b.checkFleetRows(seed, rows)
		if err := b.fleetFingerprint(coord.FleetSnapshot(), rows, out); err != nil {
			return passResult{}, err
		}
	}
	if k < b.sz.qualPasses {
		w.qual = append(w.qual, rows...)
	}
	p := passResult{wall: wall, rows: n, attempts: n}
	for _, r := range rows {
		p.insts += b.rowInsts(r.cfg)
	}
	if tr != nil {
		st := coord.Status()
		w.fab.rpcSec = append(w.fab.rpcSec, tt.rpcSec...)
		w.fab.upload += float64(tt.upload)
		w.fab.mergeSec += mergeSec
		w.fab.grants += float64(st.LeaseGrants)
		w.fab.steals += float64(st.LeaseSteals)
		for _, ws := range st.Workers {
			w.fab.busyFrac = append(w.fab.busyFrac, ws.BusyFrac)
		}
		_, runlogBytes := rj.Stats()
		l := &w.ledger
		l.passes++
		l.wall += wall
		l.compactSec += compactSec
		l.journalBytes += float64(journalBytes)
		l.runlogBytes += float64(runlogBytes)
		w.addFleetSnapshot(b, coord.FleetSnapshot(), rows)
	}
	return p, nil
}

// checkFleetJournals is the fleet's exactly-once gate: across every
// per-lease journal, each index of the run appears once. It returns the
// journals' total size.
func (b *bench) checkFleetJournals(k int, dir string, n int) (int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil {
		return 0, err
	}
	seen := make([]int, n)
	var bytes int64
	for _, p := range paths {
		_, rows, err := dataset.ReadStreamRows(p)
		if err != nil {
			return 0, err
		}
		size, err := fileSize(p)
		if err != nil {
			return 0, err
		}
		bytes += size
		for _, r := range rows {
			if r.Index < 0 || r.Index >= n {
				b.failf("fleet pass %d: journal %s holds index %d outside [0, %d)", k, filepath.Base(p), r.Index, n)
				continue
			}
			seen[r.Index]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			b.failf("fleet pass %d: index %d journaled %d times", k, i, c)
		}
	}
	return bytes, nil
}

// checkFleetRows re-simulates a seeded sample of merged rows in this
// process and requires identical cycles and retired-instruction counts.
func (b *bench) checkFleetRows(seed int64, rows []rowRecord) {
	picked := sampleRows(rand.New(rand.NewSource(seed)), rows, b.sz.fleetCheck)
	for _, m := range b.resimulate(picked) {
		if m.err != nil {
			b.failf("fleet: re-simulating index %d %s: %v", m.row.index, m.app, m.err)
			continue
		}
		if float64(m.stats.Cycles) != m.row.targets[m.app] {
			b.failf("fleet: index %d %s merged %v cycles, single process %d", m.row.index, m.app, m.row.targets[m.app], m.stats.Cycles)
		}
		if want := b.insts[progKey{m.app, m.row.cfg.Core.VectorLength}]; m.stats.Retired != want {
			b.failf("fleet: index %d %s retired %d, program has %d", m.row.index, m.app, m.stats.Retired, want)
		}
	}
}

// fleetFingerprint is fingerprint for a fleet pass: cycles come from the
// merged rows, the miss counters from the workers' piggybacked telemetry.
func (b *bench) fleetFingerprint(snap obs.Snapshot, rows []rowRecord, csvPath string) error {
	var cycles float64
	var retired int64
	for _, r := range rows {
		for _, app := range b.apps {
			cycles += r.targets[app]
		}
		retired += b.rowInsts(r.cfg)
	}
	b.layer["simeng.sim_cycles"] = cycles
	b.layer["simeng.retired"] = float64(retired)
	b.layer["sstmem.l1_misses"] = familyTotal(snap, "armdse_fleet_mem_l1_misses_total")
	b.layer["sstmem.l2_misses"] = familyTotal(snap, "armdse_fleet_mem_l2_misses_total")
	b.layer["sstmem.ram_reads"] = familyTotal(snap, "armdse_fleet_mem_ram_reads_total")
	var err error
	b.sha256, err = fileSHA256(csvPath)
	return err
}

// addFleetSnapshot feeds a traced fleet pass's simulator and config
// timings, which live in the workers' registries, into the ledger. Fleet
// workers keep no runlog, so their quantiles are interpolated from the
// log2 histograms summed over the traced passes.
func (w *sweepWL) addFleetSnapshot(b *bench, snap obs.Snapshot, rows []rowRecord) {
	l := &w.ledger
	if l.appWallMs == nil {
		l.appWallMs, l.appInsts = map[string]float64{}, map[string]int64{}
	}
	for _, f := range snap.Families {
		for _, s := range f.Series {
			if hasLabel(s.Labels, "worker") {
				continue
			}
			switch f.Name {
			case "armdse_fleet_config_wall_nanoseconds":
				addBuckets(&l.configBuckets, s.Buckets)
				l.configSum += float64(s.Sum) / 1e6
			case "armdse_fleet_run_wall_nanoseconds":
				addBuckets(&l.runBuckets, s.Buckets)
				for _, lb := range s.Labels {
					if lb.Key == "app" {
						l.appWallMs[lb.Value] += float64(s.Sum) / 1e6
					}
				}
			}
		}
	}
	for _, r := range rows {
		for _, app := range b.apps {
			l.appInsts[app] += b.insts[progKey{app, r.cfg.Core.VectorLength}]
		}
	}
}

func (w *sweepWL) finish(b *bench) error {
	var err error
	if b.e2e["hybrid_mape_pct"], err = b.boundMAPE(w.qual); err != nil {
		return err
	}
	if !b.traced {
		return nil
	}
	if b.layer["dtree.surrogate_mape_pct"], err = b.surrogateMAPE(w.qual); err != nil {
		return err
	}
	w.ledger.into(b.layer, b.apps)
	if w.fleet {
		f := &w.fab
		n := float64(max(w.ledger.passes, 1))
		b.layer["fabric.rpc_ms.p50"] = 1e3 * quantile(f.rpcSec, 0.5)
		b.layer["fabric.rpc_ms.p90"] = 1e3 * quantile(f.rpcSec, 0.9)
		b.layer["fabric.rpcs"] = float64(len(f.rpcSec)) / n
		b.layer["fabric.upload_bytes"] = f.upload / n
		b.layer["fabric.merge_s"] = f.mergeSec / n
		b.layer["fabric.lease_grants"] = f.grants / n
		b.layer["fabric.lease_steals"] = f.steals / n
		b.layer["fabric.worker_busy_frac"] = median(f.busyFrac)
	}
	return nil
}
