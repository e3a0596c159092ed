package model

import (
	"time"

	"adatm/internal/audit"
)

// NewDecision flattens a scored Plan into an audit Decision. The timestamp
// is the call time.
func NewDecision(p *Plan) *audit.Decision {
	d := &audit.Decision{
		Time:   time.Now(),
		Dims:   append([]int(nil), p.Dims...),
		NNZ:    p.NNZ,
		Rank:   p.Rank,
		Budget: p.Budget,
		Exact:  p.Exact,
		ByTime: p.ByTime,
		Chosen: p.Chosen.Name,
		Reason: p.Reason(),
	}
	d.Candidates = make([]audit.CandidateRecord, len(p.Candidates))
	for i, c := range p.Candidates {
		d.Candidates[i] = audit.CandidateRecord{
			Name:               c.Name,
			Tree:               c.Strategy.String(),
			PredOps:            c.Pred.Ops,
			PredIndexBytes:     c.Pred.IndexBytes,
			PredPeakValueBytes: c.Pred.PeakValueBytes,
			PredTimeNS:         c.PredTime.Nanoseconds(),
			Feasible:           c.Feasible,
		}
	}
	d.Ranges = make([]audit.RangeCount, len(p.Ranges))
	for i, r := range p.Ranges {
		d.Ranges[i] = audit.RangeCount{Lo: r.Lo, Hi: r.Hi, Count: r.Count, Exact: r.Exact}
	}
	d.Workers = p.Workers
	d.Accum = make([]audit.AccumRecord, len(p.Accum))
	for i, a := range p.Accum {
		d.Accum[i] = audit.AccumRecord{
			Mode:            a.Mode,
			Rows:            a.Rows,
			Strategy:        a.Strategy.String(),
			PredScatterNS:   a.ScatterNS,
			PredPrivatizeNS: a.PrivatizeNS,
			FootprintBytes:  a.FootprintBytes,
			Feasible:        a.Feasible,
		}
	}
	return d
}

// NewPartitionDecision flattens a scored PartitionPlan into an audit
// Decision. Transport names the wire the run will use ("chan", "tcp").
func NewPartitionDecision(p *PartitionPlan, transport string) *audit.Decision {
	d := &audit.Decision{
		Time:      time.Now(),
		NNZ:       int64(p.NNZ),
		Rank:      p.Rank,
		Kind:      "partition",
		Procs:     p.Procs,
		Transport: transport,
		Chosen:    p.Chosen.Name,
		Reason:    audit.ReasonCommOptimal,
	}
	d.Partition = make([]audit.PartitionCandidateRecord, len(p.Candidates))
	for i, c := range p.Candidates {
		d.Partition[i] = audit.PartitionCandidateRecord{
			Name:          c.Name,
			VolumeRows:    c.Comm.TotalRows,
			VolumeBytes:   c.Comm.VolumeBytes(p.Rank),
			Messages:      c.Comm.Messages,
			Imbalance:     c.Imbalance,
			PredComputeNS: c.ComputeNS,
			PredCommNS:    c.CommNS,
			PredNS:        c.PredNS,
		}
	}
	return d
}
