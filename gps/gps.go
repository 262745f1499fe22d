// Package gps is the public API of this library: a statistical analysis
// and simulation toolkit for the Generalized Processor Sharing (GPS,
// fluid Weighted Fair Queueing) scheduling discipline, implementing
// Zhang, Towsley & Kurose, "Statistical Analysis of Generalized Processor
// Sharing Scheduling Discipline" (SIGCOMM '94).
//
// The package is organized around four activities:
//
//   - Characterize traffic: model sources as Exponentially Bounded
//     Burstiness (E.B.B.) processes — analytically for Markov-modulated
//     fluids (NewOnOff + (*MarkovFluid).EBB) or empirically from traces
//     (FitEBB).
//   - Bound a single GPS server: build a Server and call Analyze to get
//     per-session exponential tail bounds on backlog and delay
//     (Theorems 7/8/10/11/12 of the paper) plus E.B.B. output
//     characterizations.
//   - Bound a network: build a Network and use RPPSBounds (closed-form
//     Theorem 15 end-to-end bounds) or AnalyzeCRST (recursive Theorem 13
//     bounds for any CRST assignment, arbitrary topology).
//   - Validate by simulation: NewFluidSim (exact single-node fluid GPS),
//     NewNetworkSim (multi-node), and the pgps sub-functionality
//     (packetized WFQ/FCFS/DRR) measure actual backlogs and delays to
//     compare against the bounds.
//
// All bounds are numeric.ExpTail values (Λ·e^{-α·x} envelopes) or
// families thereof; see SessionBounds for the per-session query methods.
package gps

import (
	"repro/internal/ebb"
	"repro/internal/fluid"
	"repro/internal/gpsmath"
	"repro/internal/lbap"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/pgps"
	"repro/internal/source"
)

// ----------------------------------------------------- traffic models --

// EBB is a (ρ, Λ, α) Exponentially Bounded Burstiness characterization:
// Pr{A(τ,t) >= ρ(t-τ) + x} <= Λe^{-αx}.
type EBB = ebb.Process

// ExpTail is an exponential tail bound Λ·e^{-α·x}.
type ExpTail = numeric.ExpTail

// AggregateEBB lumps several flows into one E.B.B. characterization at
// Chernoff parameter θ.
func AggregateEBB(flows []EBB, theta float64) (EBB, error) {
	return ebb.Aggregate(flows, theta)
}

// Source generates per-slot fluid arrivals.
type Source = source.Source

// OnOff is a discrete-time two-state Markov on-off source.
type OnOff = source.OnOff

// NewOnOff builds an on-off source (off→on probability p, on→off
// probability q, on-rate lambda), started in steady state.
func NewOnOff(p, q, lambda float64, seed uint64) (*OnOff, error) {
	return source.NewOnOff(p, q, lambda, seed)
}

// CBR is a constant-rate source.
type CBR = source.CBR

// Trace replays a recorded arrival sequence.
type Trace = source.Trace

// NewTrace wraps a per-slot arrival slice as a Source.
func NewTrace(data []float64) (*Trace, error) { return source.NewTrace(data) }

// MarkovFluid is the analytic model of a Markov-modulated fluid source;
// it yields E.B.B. characterizations and direct queue-tail bounds.
type MarkovFluid = source.MarkovFluid

// NewMarkovFluid builds a Markov-modulated fluid model from a transition
// matrix and per-state rates.
func NewMarkovFluid(p [][]float64, rates []float64) (*MarkovFluid, error) {
	return source.NewMarkovFluid(p, rates)
}

// Shaper wraps a source with a (σ, ρ) leaky bucket.
type Shaper = source.Shaper

// NewShaper builds a leaky-bucket shaper around a source.
func NewShaper(inner Source, sigma, rho float64) (*Shaper, error) {
	return source.NewShaper(inner, sigma, rho)
}

// Record drains n slots from a source into a slice.
func Record(s Source, n int) []float64 { return source.Record(s, n) }

// FitEBB estimates an E.B.B. characterization from a recorded trace for a
// chosen envelope rate.
func FitEBB(trace []float64, rho float64, windows []int) (EBB, error) {
	return source.FitEBB(trace, rho, windows)
}

// VerifyEBB empirically checks a characterization against a trace,
// returning the worst empirical/bound ratio observed.
func VerifyEBB(trace []float64, p EBB, windows []int, probes []float64) (float64, error) {
	return source.VerifyEBB(trace, p, windows, probes)
}

// ------------------------------------------------- single-node theory --

// Session is one GPS session: a weight φ and an E.B.B. arrival model.
type Session = gpsmath.Session

// Server is a single GPS server shared by sessions.
type Server = gpsmath.Server

// NewRPPSServer builds a server with the Rate Proportional Processor
// Sharing assignment (φ_i = ρ_i).
func NewRPPSServer(rate float64, arrivals []EBB, names []string) Server {
	return gpsmath.NewRPPSServer(rate, arrivals, names)
}

// SessionBounds carries every bound the analysis yields for one session;
// see BacklogTail, DelayTail, BacklogQuantile, DelayQuantile, OutputEBB.
type SessionBounds = gpsmath.SessionBounds

// Analysis is the complete single-node result.
type Analysis = gpsmath.Analysis

// Options steers Analyze.
type Options = gpsmath.Options

// XiMode selects the discretization handling in the Lemma 6 bounds.
type XiMode = gpsmath.XiMode

// Re-exported option constants.
const (
	XiOne     = gpsmath.XiOne
	XiOptimal = gpsmath.XiOptimal
)

// Analyze validates a server and computes per-session backlog/delay tail
// bounds and output characterizations (paper Theorems 7–12).
func Analyze(srv Server, opts Options) (*Analysis, error) {
	return gpsmath.AnalyzeServer(srv, opts)
}

// Partition is a feasible partition of a server's sessions (paper §5).
type Partition = gpsmath.Partition

// ------------------------------------------------------------ network --

// NetNode is one GPS server in a network.
type NetNode = network.Node

// NetSession is one routed session in a network.
type NetSession = network.Session

// Network models a network of GPS servers.
type Network = network.Network

// NetBounds is a closed-form end-to-end bound pair (Theorem 15).
type NetBounds = network.NetBounds

// BoundVariant selects the Lemma 5 form behind Theorem 15 bounds.
type BoundVariant = network.BoundVariant

// Re-exported bound-variant constants.
const (
	VariantDiscrete        = network.VariantDiscrete
	VariantContinuousXi1   = network.VariantContinuousXi1
	VariantContinuousOptXi = network.VariantContinuousOptXi
)

// CRSTOptions steers AnalyzeCRST; CRSTAnalysis is its result.
type (
	CRSTOptions  = network.CRSTOptions
	CRSTAnalysis = network.CRSTAnalysis
	HopBound     = network.HopBound
)

// ErrNotCRST reports a GPS assignment with cyclically impeding sessions.
var ErrNotCRST = network.ErrNotCRST

// --------------------------------------------------------- simulators --

// FluidSim is the exact single-node fluid GPS simulator.
type FluidSim = fluid.Sim

// FluidConfig configures NewFluidSim.
type FluidConfig = fluid.Config

// NewFluidSim builds a single-node simulator.
func NewFluidSim(cfg FluidConfig) (*FluidSim, error) { return fluid.New(cfg) }

// NetworkSim is the multi-node fluid GPS network simulator.
type NetworkSim = netsim.Sim

// NetworkSimConfig configures NewNetworkSim.
type NetworkSimConfig = netsim.Config

// SimNode and SimSession describe the simulated topology.
type (
	SimNode    = netsim.Node
	SimSession = netsim.SessionSpec
)

// NewNetworkSim builds a network simulator.
func NewNetworkSim(cfg NetworkSimConfig) (*NetworkSim, error) { return netsim.New(cfg) }

// ------------------------------------------------- packetized service --

// Packet is one packet offered to a packet scheduler.
type Packet = pgps.Packet

// PacketScheduler is a work-conserving packet scheduler.
type PacketScheduler = pgps.Scheduler

// Completion records one served packet.
type Completion = pgps.Completion

// NewWFQ builds a Packet-by-packet GPS (WFQ) scheduler with an exact GPS
// virtual clock.
func NewWFQ(rate float64, phi []float64) (*pgps.WFQ, error) { return pgps.NewWFQ(rate, phi) }

// NewFCFS builds a first-come-first-served scheduler.
func NewFCFS() *pgps.FCFS { return pgps.NewFCFS() }

// NewDRR builds a Deficit Round Robin scheduler.
func NewDRR(quantum []float64) (*pgps.DRR, error) { return pgps.NewDRR(quantum) }

// SimulatePackets runs a non-preemptive single server over the packets
// with the given scheduler.
func SimulatePackets(rate float64, sched PacketScheduler, packets []Packet) ([]Completion, error) {
	return pgps.Simulate(rate, sched, packets)
}

// ------------------------------------------- deterministic baseline ----

// Envelope is a (σ, ρ) leaky-bucket envelope.
type Envelope = lbap.Envelope

// DetBound is a worst-case (Parekh-Gallager) guarantee.
type DetBound = lbap.DetBound

// DetSingleNodeBounds computes the deterministic per-session GPS bounds
// for leaky-bucket-constrained sessions at one node.
func DetSingleNodeBounds(rate float64, phis []float64, envs []Envelope) ([]DetBound, error) {
	return lbap.SingleNodeBounds(rate, phis, envs)
}

// DetRPPSNetworkBound is Parekh & Gallager's topology-independent RPPS
// network bound (the deterministic twin of Theorem 15).
func DetRPPSNetworkBound(env Envelope, gnet float64) (DetBound, error) {
	return lbap.RPPSNetworkBound(env, gnet)
}

// MinSigma returns the smallest burst allowance σ at which a trace
// conforms to rate ρ.
func MinSigma(trace []float64, rho float64) float64 { return lbap.MinSigma(trace, rho) }
