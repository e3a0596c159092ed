package adatm

import (
	"fmt"

	"adatm/internal/dist"
	"adatm/internal/model"
	"adatm/internal/tensor"
)

// Distributed (sharded) decomposition: the public surface over
// internal/dist. The solver runs one SPMD worker per simulated process,
// exchanging fold/expand row messages over a pluggable transport, and is
// numerically identical to the single-node solver (see DESIGN.md §2j).

// Re-exported distributed-layer types.
type (
	// DistResult is a distributed decomposition plus its communication
	// accounting (messages sent, transport retries, predicted volume).
	DistResult = dist.Result
	// DistFault injects transport faults (drop/duplicate/delay) into the
	// TCP transport for resilience testing.
	DistFault = dist.FaultConfig
	// DistCommStats is the partition's exact per-iteration communication
	// accounting (fold row volume, message count, connectivity).
	DistCommStats = dist.CommStats
	// PartitionPlan is the scored partitioner candidate list and choice.
	PartitionPlan = model.PartitionPlan
)

// Partition names accepted by DistOptions.Partition.
const (
	// PartitionAuto lets the cost model choose (the default).
	PartitionAuto = "auto"
	// PartitionRandom places nonzeros uniformly at random.
	PartitionRandom = "random"
	// PartitionMediumGrain uses the Cartesian process-grid scheme.
	PartitionMediumGrain = "medium-grain"
	// PartitionFineGreedy uses the affinity-greedy per-nonzero scheme.
	PartitionFineGreedy = "fine-greedy"
)

// Transport names accepted by DistOptions.Transport.
const (
	// TransportChan is the deterministic in-process transport (default).
	TransportChan = "chan"
	// TransportTCP is the length-prefixed TCP loopback transport with
	// acknowledged retransmission.
	TransportTCP = "tcp"
)

// DistOptions configures DecomposeDist.
type DistOptions struct {
	// Rank is the number of rank-one components (required).
	Rank int
	// MaxIters bounds the ALS iterations (default 50).
	MaxIters int
	// Tol is the convergence threshold on the fit change (default 1e-5).
	Tol float64
	// Seed drives the random factor initialization (shared with the
	// single-node solver: same seed, same trajectory).
	Seed int64
	// Workers is the per-process parallel width for dense kernels.
	Workers int
	// Procs is the simulated process count (default 2).
	Procs int
	// Partition picks the nonzero partitioner: PartitionAuto (default,
	// model-driven), PartitionRandom, PartitionMediumGrain, or
	// PartitionFineGreedy.
	Partition string
	// Transport picks the wire: TransportChan (default) or TransportTCP.
	Transport string
	// Engine is the per-shard MTTKRP kernel kind (default EngineCOO).
	// Empty shards always fall back to the streaming COO kernel.
	Engine EngineKind
	// TrackFit retains the per-iteration fit trajectory.
	TrackFit bool
	// Init supplies initial factor matrices; nil selects the Seed-derived
	// random initialization.
	Init []*Matrix
	// Fault, when non-nil, enables fault injection on the TCP transport.
	Fault *DistFault
	// Metrics, when non-nil, receives the adatm_dist_* series.
	Metrics *Metrics
	// Audit, when non-nil, records the partition decision in the ledger
	// (a "dist.partition" event with the scored candidates).
	Audit *AuditRecorder
}

// PartitionPlanFor scores the partitioner family for x at the given process
// count and rank and returns the plan (call PartitionPlan.String for a
// report table).
func PartitionPlanFor(x *Tensor, procs, rank int, seed int64) (*PartitionPlan, error) {
	return model.SelectPartition(x, model.PartitionOptions{Procs: procs, Rank: rank, Seed: seed})
}

// DecomposeDist computes a rank-R CP decomposition of x over opt.Procs
// simulated processes. The returned DistResult matches what Decompose
// produces for the same options to within float reassociation of the
// distributed reductions (see DESIGN.md §2j); convert it with
// DistResultToResult to reuse Result-based reporting.
func DecomposeDist(x *Tensor, opt DistOptions) (*DistResult, error) {
	if x == nil {
		return nil, fmt.Errorf("adatm: nil tensor")
	}
	if err := x.Validate(); err != nil {
		return nil, fmt.Errorf("adatm: %w", err)
	}
	if opt.Procs <= 0 {
		opt.Procs = 2
	}
	part, err := selectPartition(x, &opt)
	if err != nil {
		return nil, err
	}

	kind := opt.Engine
	if kind == "" {
		kind = EngineCOO
	}
	var engErr error
	cluster := dist.NewCluster(x, part, func(shard *tensor.COO) Engine {
		k := kind
		if shard.NNZ() == 0 {
			k = EngineCOO
		}
		eng, err := NewEngine(shard, k, EngineConfig{Rank: opt.Rank, Workers: opt.Workers})
		if err != nil && engErr == nil {
			engErr = err
		}
		return eng
	})
	if engErr != nil {
		return nil, engErr
	}

	tr, err := buildTransport(&opt)
	if err != nil {
		return nil, err
	}
	defer tr.Close()

	return dist.Run(x, cluster, tr, dist.RunOptions{
		Rank: opt.Rank, MaxIters: opt.MaxIters, Tol: opt.Tol,
		Seed: opt.Seed, Workers: opt.Workers,
		Init: opt.Init, TrackFit: opt.TrackFit, Metrics: opt.Metrics,
	})
}

// selectPartition resolves DistOptions.Partition: the model's choice for
// PartitionAuto, the named partitioner otherwise. In both cases the scored
// plan is recorded through the audit recorder so the ledger carries the
// evidence (and, for a forced partitioner, what the model would have done).
func selectPartition(x *Tensor, opt *DistOptions) (*dist.Partition, error) {
	name := opt.Partition
	if name == "" {
		name = PartitionAuto
	}
	transport := opt.Transport
	if transport == "" {
		transport = TransportChan
	}
	plan, err := model.SelectPartition(x, model.PartitionOptions{Procs: opt.Procs, Rank: opt.Rank, Seed: opt.Seed})
	if err != nil {
		return nil, fmt.Errorf("adatm: %w", err)
	}
	var part *dist.Partition
	dec := model.NewPartitionDecision(plan, transport)
	switch name {
	case PartitionAuto:
		part = plan.Chosen.Part
	case PartitionRandom, PartitionMediumGrain, PartitionFineGreedy:
		if c := plan.Partitioner(name); c != nil {
			part = c.Part
		} else if name == PartitionFineGreedy {
			// Past the feasibility gate (procs > 64 or order > 16) the
			// greedy partitioner would panic; refuse explicitly.
			return nil, fmt.Errorf("adatm: fine-greedy partition supports at most 64 processes and order 16")
		}
		dec.Chosen = name
		dec.Reason = "user-forced"
	default:
		return nil, fmt.Errorf("adatm: unknown partition %q (want auto, random, medium-grain, fine-greedy)", name)
	}
	if opt.Audit != nil {
		opt.Audit.RecordPartition(dec)
	}
	return part, nil
}

// buildTransport resolves DistOptions.Transport.
func buildTransport(opt *DistOptions) (dist.Transport, error) {
	switch opt.Transport {
	case "", TransportChan:
		if opt.Fault != nil {
			return nil, fmt.Errorf("adatm: fault injection requires the tcp transport")
		}
		return dist.NewChanTransport(opt.Procs), nil
	case TransportTCP:
		cfg := dist.TCPConfig{}
		if opt.Fault != nil {
			cfg.Fault = *opt.Fault
		}
		return dist.NewTCPTransport(opt.Procs, cfg)
	default:
		return nil, fmt.Errorf("adatm: unknown transport %q (want chan, tcp)", opt.Transport)
	}
}

// DistResultToResult returns the single-node Result embedded in a
// distributed result, so Result-based reporting (model save,
// reconstruction, CLI summaries) applies unchanged.
func DistResultToResult(r *DistResult) *Result {
	if r == nil {
		return nil
	}
	return &r.Result
}
