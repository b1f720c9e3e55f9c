package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"zeiot"
	"zeiot/internal/cnn"
	"zeiot/internal/congestion"
	"zeiot/internal/csi"
	"zeiot/internal/jobs"
	"zeiot/internal/microdeep"
	"zeiot/internal/ml"
	"zeiot/internal/modality"
	"zeiot/internal/rng"
	"zeiot/internal/wsn"
)

// e18ModelNsPerMAC is E18's modelled inference cost: a 2 MMAC/s
// accelerator (e18MACRateHz in e18_crossmodal.go) spends 500 ns per MAC.
const e18ModelNsPerMAC = 500.0

// timeCalls runs prep then fn n times, recording a span per fn call under
// parent, and returns the median fn duration. One untimed call of each
// precedes the timed ones, so lazily built state is warm. The first error
// either returns stops the probe.
func timeCalls(tr *tracer, parent int, cat, name string, n int, prep, fn func(i int) error) (time.Duration, error) {
	if prep == nil {
		prep = func(int) error { return nil }
	}
	if err := prep(-1); err != nil {
		return 0, err
	}
	if err := fn(-1); err != nil {
		return 0, err
	}
	ds := make([]float64, n)
	for i := 0; i < n; i++ {
		if err := prep(i); err != nil {
			return 0, err
		}
		start := time.Now()
		err := fn(i)
		end := time.Now()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		tr.add(parent, cat, name, start, end, nil)
		ds[i] = float64(end.Sub(start))
	}
	return time.Duration(median(ds)), nil
}

// loungeNet is E2's standard CNN (1×17×25 input, 3×3 conv to 4 maps,
// 3×3 max-pool, dense 160→16→2), the network the cnn and microdeep
// probes time.
func loungeNet(stream *rng.Stream) *cnn.Network {
	return cnn.NewNetwork([]int{1, 17, 25},
		cnn.NewConv2D(1, 4, 3, 3, 1, 1, stream.Split("c")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(3, 3),
		cnn.NewFlatten(),
		cnn.NewDense(4*5*8, 16, stream.Split("d1")),
		cnn.NewReLU(),
		cnn.NewDense(16, 2, stream.Split("d2")),
	)
}

// loungeMACs counts loungeNet's multiply-accumulates per forward pass from
// its layer shapes: the same-padded conv does 4×17×25 outputs of 1×3×3
// taps, the dense layers 160×16 and 16×2.
const loungeMACs = 4*17*25*1*3*3 + 160*16 + 16*2

// runProbes times each layer's exported functions on the shapes and
// generators the experiments use, one probe group span per layer.
func runProbes(ctx context.Context, root int, seed uint64, rep *report, tr *tracer) {
	stream := rng.New(seed).Split("perfbench-probes")
	group := func(layer string, fn func(parent int) error) {
		if ctx.Err() != nil {
			return
		}
		sp := tr.begin(root, "probe", "probe "+layer)
		err := fn(sp)
		tr.end(sp, nil)
		if err != nil {
			rep.fail(1, fmt.Errorf("probe %s: %w", layer, err))
		}
		rep.attempted++
	}

	samples, err := modality.NewLounge().Generate(64, stream.Split("lounge"))
	if err != nil {
		rep.fail(1, fmt.Errorf("probe samples: %w", err))
		return
	}
	perm := make([]int, len(samples))
	for i := range perm {
		perm[i] = i
	}

	group("cnn", func(p int) error {
		net := loungeNet(stream.Split("cnn"))
		fwd, err := timeCalls(tr, p, "cnn", "Network.Forward", 400, nil, func(i int) error {
			net.Forward(samples[(i+len(samples))%len(samples)].Input)
			return nil
		})
		if err != nil {
			return err
		}
		perMAC := float64(fwd) / loungeMACs
		rep.layer("cnn.forward_ns", float64(fwd))
		rep.layer("cnn.forward_ns_per_mac", perMAC)
		rep.layer("cnn.mac_model_ratio", perMAC/e18ModelNsPerMAC)
		rep.notes = append(rep.notes, fmt.Sprintf(
			"E18 cost model: measured %.3g ns/MAC (%d MACs per loungeNet forward) against the modelled %.0f ns/MAC (2 MMAC/s): the model is %.0fx the measured host cost",
			perMAC, loungeMACs, e18ModelNsPerMAC, e18ModelNsPerMAC/perMAC))

		opt := cnn.NewSGD(0.02, 0.9)
		epoch, err := timeCalls(tr, p, "cnn", "Network.TrainEpoch", 12, nil, func(int) error {
			net.TrainEpoch(samples, perm, 16, opt)
			return nil
		})
		if err != nil {
			return err
		}
		rep.layer("cnn.train_ns_per_sample", float64(epoch)/float64(len(samples)))

		bnet := loungeNet(stream.Split("cnn-batched"))
		bopt := cnn.NewSGD(0.02, 0.9)
		bepoch, err := timeCalls(tr, p, "cnn", "Network.TrainEpochBatched", 12, nil, func(int) error {
			bnet.TrainEpochBatched(samples, perm, 16, 8, bopt)
			return nil
		})
		rep.layer("cnn.train_batched_ns_per_sample", float64(bepoch)/float64(len(samples)))
		return err
	})

	group("microdeep", func(p int) error {
		w := wsn.NewGrid(5, 10, 1)
		m, err := microdeep.Build(loungeNet(stream.Split("md")), w, microdeep.StrategyBalanced)
		if err != nil {
			return err
		}
		opt := cnn.NewSGD(0.01, 0.9)
		epoch, err := timeCalls(tr, p, "microdeep", "Model.TrainEpoch", 8, nil, func(int) error {
			m.TrainEpoch(samples, perm, 16, opt)
			return nil
		})
		if err != nil {
			return err
		}
		rep.layer("microdeep.train_ns_per_sample", float64(epoch)/float64(len(samples)))

		// A fresh model per call, so every Plan is the uncached planning
		// work a new topology costs.
		var fresh *microdeep.Model
		plan, err := timeCalls(tr, p, "microdeep", "Plan", 30, func(int) (err error) {
			fresh, err = microdeep.Build(loungeNet(stream.Split("md-plan")), w, microdeep.StrategyBalanced)
			return err
		}, func(int) error {
			_, err := microdeep.Plan(fresh.Graph, fresh.Assign, w)
			return err
		})
		if err != nil {
			return err
		}
		rep.layer("microdeep.plan_us", float64(plan)/1e3)

		charge, err := timeCalls(tr, p, "microdeep", "ChargeForward", 200, nil, func(int) error {
			_, err := microdeep.ChargeForward(m.Graph, m.Assign, w)
			return err
		})
		if err != nil {
			return err
		}
		rep.layer("microdeep.charge_forward_us", float64(charge)/1e3)

		exec := m.DistributedExecutor()
		fwd, err := timeCalls(tr, p, "microdeep", "Executor.Forward", 200, nil, func(i int) error {
			_, err := exec.Forward(samples[(i+len(samples))%len(samples)].Input)
			return err
		})
		rep.layer("microdeep.executor_forward_us", float64(fwd)/1e3)
		return err
	})

	group("wsn", func(p int) error {
		const side, batch = 20, 1000
		dense := wsn.NewGrid(side, side, 1)
		pairs := stream.Split("wsn-pairs")
		route, err := timeCalls(tr, p, "wsn", "Route x1000", 20, nil, func(int) error {
			for k := 0; k < batch; k++ {
				if _, err := dense.Route(pairs.Intn(side*side), pairs.Intn(side*side)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		rep.layer("wsn.route_ns", float64(route)/batch)

		// A flip on the 100k-node sharded grid, followed by one route
		// between the flipped node's row neighbours, which pays the lazy
		// repair of the flipped shard. Calls alternate Fail (even k) and
		// Recover of the same node; k counts from the untimed warm-up call
		// (i = -1).
		const rows, cols = 316, 317
		sh := wsn.NewGridSharded(rows, cols, 1, wsn.ShardOptions{})
		picks := stream.Split("wsn-flips")
		var id int
		flip, err := timeCalls(tr, p, "wsn", "Fail/Recover+Route", 40, func(i int) error {
			if (i+1)%2 == 0 {
				id = picks.Intn(rows)*cols + 1 + picks.Intn(cols-2)
			}
			return nil
		}, func(i int) error {
			if (i+1)%2 == 0 {
				sh.Fail(id)
			} else {
				sh.Recover(id)
			}
			_, err := sh.Route(id-1, id+1)
			return err
		})
		rep.layer("wsn.shard_flip_us", float64(flip)/1e3)
		return err
	})

	group("csi", func(p int) error {
		room := csi.DefaultRoom(csi.PaperPatterns()[0])
		positions := csi.SevenPositions()
		cs := stream.Split("csi")
		var snap []csi.Matrix
		snapT, err := timeCalls(tr, p, "csi", "SceneConfig.Snapshot", 100, nil, func(i int) error {
			snap = room.Snapshot(positions[(i+len(positions))%len(positions)], cs)
			return nil
		})
		if err != nil {
			return err
		}
		rep.layer("csi.snapshot_us", float64(snapT)/1e3)
		h := snap[0]
		a := h.ConjTranspose().Mul(h)
		eig, err := timeCalls(tr, p, "csi", "HermitianEig", 200, nil, func(int) error {
			csi.HermitianEig(a)
			return nil
		})
		if err != nil {
			return err
		}
		rep.layer("csi.eig_us", float64(eig)/1e3)
		feat, err := timeCalls(tr, p, "csi", "FeedbackConfig.Features", 100, nil, func(int) error {
			_, err := room.Feedback.Features(snap)
			return err
		})
		if err != nil {
			return err
		}
		rep.layer("csi.features_us", float64(feat)/1e3)

		// E5's ablation dataset: 32 snapshots per position, 624 features;
		// each fit sees three folds of four, as its cross-validation does.
		var data ml.Dataset
		for posIdx, pos := range positions {
			for s := 0; s < 32; s++ {
				f, err := room.Feedback.Features(room.Snapshot(pos, cs))
				if err != nil {
					return err
				}
				data.X = append(data.X, f)
				data.Y = append(data.Y, posIdx)
			}
		}
		idx := make([]int, 0, len(data.X))
		for i := range data.X {
			if i%4 != 0 {
				idx = append(idx, i)
			}
		}
		train := data.Subset(idx)
		fit, err := timeCalls(tr, p, "ml", "Softmax.Fit", 3, nil, func(int) error {
			_, err := ml.Softmax{LR: 0.3, Epochs: 150, Seed: seed}.Fit(train)
			return err
		})
		rep.layer("ml.softmax_fit_ms", float64(fit)/1e6)
		return err
	})

	group("congestion", func(p int) error {
		cfg := congestion.DefaultRoomConfig()
		cs := stream.Split("congestion")
		var est *congestion.RoomEstimator
		trainT, err := timeCalls(tr, p, "congestion", "TrainRoomEstimator", 5, nil, func(int) (err error) {
			est, err = congestion.TrainRoomEstimator(cfg, 60, cs)
			return err
		})
		if err != nil {
			return err
		}
		rep.layer("congestion.room_train_ms", float64(trainT)/1e6)
		evalT, err := timeCalls(tr, p, "congestion", "EvaluateRoom", 5, nil, func(int) error {
			congestion.EvaluateRoom(est, 25, cs)
			return nil
		})
		rep.layer("congestion.room_eval_ms", float64(evalT)/1e6)
		return err
	})

	group("modality", func(p int) error {
		const n = 16
		for _, name := range modality.Names() {
			src, err := modality.New(name)
			if err != nil {
				return err
			}
			ms := stream.Split("modality-" + name)
			d, err := timeCalls(tr, p, "modality", name+".Generate", 5, nil, func(int) error {
				_, err := src.Generate(n, ms)
				return err
			})
			if err != nil {
				return err
			}
			rep.layer(modalityMetric(name), float64(d)/n/1e3)
		}
		return nil
	})

	group("service", func(p int) error {
		cfg := jobSpec{Experiment: "e1", Seed: seed, SampleScale: 0.5}.runConfig()
		var key string
		keyT, err := timeCalls(tr, p, "confighash", "ConfigKey", 2000, nil, func(int) (err error) {
			key, err = zeiot.ConfigKey("e1", cfg)
			return err
		})
		if err != nil {
			return err
		}
		rep.layer("zeiot.config_key_us", float64(keyT)/1e3)

		// The daemon's cache-hit path: record an already-finished job.
		pool := jobs.NewPool(1, 1, func(context.Context, jobs.Work) ([]byte, error) { return nil, nil })
		defer pool.Shutdown(0)
		result := []byte(strings.Repeat("x", 2048))
		subT, err := timeCalls(tr, p, "jobs", "Pool.Complete", 2000, nil, func(int) error {
			_, err := pool.Complete("e1", key, result)
			return err
		})
		rep.layer("jobs.submit_us", float64(subT)/1e3)
		return err
	})
}

// modalityMetric names a modality's per-sample generate time; '+' in fused
// names becomes '_' to keep metric names plain.
func modalityMetric(name string) string {
	return "modality." + strings.ReplaceAll(name, "+", "_") + ".generate_us"
}
