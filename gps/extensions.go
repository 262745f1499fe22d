package gps

import (
	"repro/internal/admission"
	"repro/internal/classgps"
	"repro/internal/ebb"
	"repro/internal/effbw"
	"repro/internal/gpsmath"
	"repro/internal/hiergps"
	"repro/internal/monitor"
	"repro/internal/pgps"
	"repro/internal/pktnet"
	"repro/internal/source"
)

// ------------------------------------------------- admission control --

// QoSTarget is a soft per-session requirement Pr{D >= Delay} <= Eps.
type QoSTarget = admission.Target

// AdmissionRequest asks to place a session on a controlled link.
type AdmissionRequest = admission.Request

// AdmissionDecision records an admitted session's required rate/weight.
type AdmissionDecision = admission.Decision

// AdmissionController performs call admission control against the
// statistical GPS bounds (paper §7 direction).
type AdmissionController = admission.Controller

// ErrAdmissionRejected is returned when a request does not fit the link.
var ErrAdmissionRejected = admission.ErrRejected

// NewAdmissionController builds a controller for a link of the given
// rate.
func NewAdmissionController(rate float64) (*AdmissionController, error) {
	return admission.NewController(rate)
}

// RequiredRate returns the minimal guaranteed rate at which an E.B.B.
// session meets a QoS target (discrete Lemma 5 route).
func RequiredRate(p EBB, t QoSTarget) (float64, error) {
	return admission.RequiredRate(p, t)
}

// RequiredRateMarkov is RequiredRate with the sharper direct
// Markov-source queue bound (the paper's Figure 4 route).
func RequiredRateMarkov(m *MarkovFluid, t QoSTarget) (float64, error) {
	return admission.RequiredRateMarkov(m, t)
}

// ----------------------------------------------------- class-based GPS --

// TrafficClass groups sessions served FCFS among themselves behind one
// GPS weight (paper §7's isolation-plus-multiplexing structure).
type TrafficClass = classgps.Class

// ClassServer is a class-based GPS server (GPS across classes, FCFS
// within each).
type ClassServer = classgps.Server

// ClassBounds is a per-class bound set valid for every class member.
type ClassBounds = classgps.ClassBounds

// ClassSim simulates a class-based server with per-member delay
// measurement.
type ClassSim = classgps.Sim

// NewClassSim builds the simulator; onDelay may be nil.
func NewClassSim(s ClassServer, onDelay classgps.MemberDelayFunc) (*ClassSim, error) {
	return classgps.NewSim(s, onDelay)
}

// AnalyzeClasses computes per-class (hence per-member) statistical
// bounds; thetaFrac in (0,1) picks the aggregation Chernoff parameter
// (0 selects 0.5).
func AnalyzeClasses(s ClassServer, thetaFrac float64, independent bool, xi XiMode) ([]ClassBounds, error) {
	return s.Analyze(thetaFrac, independent, xi)
}

// ------------------------------------------------- hierarchical GPS ----

// HierGroup is one group of a two-level GPS hierarchy (link sharing).
type HierGroup = hiergps.Group

// HierServer is a two-level hierarchical GPS server.
type HierServer = hiergps.Server

// HierMemberBounds holds per-member bounds within one group.
type HierMemberBounds = hiergps.MemberBounds

// HierSim is the exact nested water-filling simulator.
type HierSim = hiergps.Sim

// AnalyzeHierarchy bounds every member at its group's guaranteed rate.
func AnalyzeHierarchy(s HierServer, opts Options) ([]HierMemberBounds, error) {
	return s.Analyze(opts)
}

// NewHierSim builds the hierarchical simulator; onDelay may be nil.
func NewHierSim(s HierServer, onDelay hiergps.DelayFunc) (*HierSim, error) {
	return hiergps.NewSim(s, onDelay)
}

// ---------------------------------------------------- packet networks --

// PacketNetConfig configures the event-driven packet network simulator.
type PacketNetConfig = pktnet.Config

// PacketNetNode is one packet switch.
type PacketNetNode = pktnet.Node

// NetPacket is one external packet arrival for the network simulator.
type NetPacket = pktnet.Packet

// NetCompletion is one packet leaving the network.
type NetCompletion = pktnet.Completion

// RunPacketNetwork runs the packet network simulation to completion.
func RunPacketNetwork(cfg PacketNetConfig, packets []NetPacket) ([]NetCompletion, error) {
	return pktnet.Run(cfg, packets)
}

// PGPSBounds shifts a session's fluid bounds by the Parekh-Gallager
// packetization terms (L_max and L_max/r).
type PGPSBounds = gpsmath.PGPSBounds

// NewPGPSBounds wraps fluid bounds with packetization parameters.
func NewPGPSBounds(fluid *SessionBounds, lmax, rate float64) (*PGPSBounds, error) {
	return gpsmath.NewPGPSBounds(fluid, lmax, rate)
}

// NewWF2Q builds a Worst-case Fair WFQ scheduler (Bennett & Zhang),
// which never runs ahead of the fluid GPS reference.
func NewWF2Q(rate float64, phi []float64) (*pgps.WF2Q, error) {
	return pgps.NewWF2Q(rate, phi)
}

// Policer is the paper's §3 zero-bucket token-marking conditioner.
type Policer = source.Policer

// NewPolicer wraps a source with a token-marking policer at rate r.
func NewPolicer(inner Source, r float64) (*Policer, error) {
	return source.NewPolicer(inner, r)
}

// Packetize splits a fluid trace into MTU-bounded packets (sizes and the
// slot each packet is released in).
func Packetize(trace []float64, mtu float64) (sizes []float64, slots []int, err error) {
	return source.Packetize(trace, mtu)
}

// ------------------------------------------------ effective bandwidth --

// EffBwFlow is any flow with an effective bandwidth eb(θ).
type EffBwFlow = effbw.Flow

// MarkovEffBwFlow adapts a Markov fluid model to EffBwFlow.
type MarkovEffBwFlow = effbw.MarkovFlow

// FCFSQueueTail bounds the backlog of a FCFS multiplexer fed by
// independent Markov flows, via effective bandwidths.
type FCFSQueueTail = effbw.FCFSQueueTailMarkov

// NewFCFSQueueTail builds the FCFS bound family for capacity c.
func NewFCFSQueueTail(flows []MarkovEffBwFlow, c float64) (*FCFSQueueTail, error) {
	return effbw.NewFCFSQueueTailMarkov(flows, c)
}

// FCFSQueueTailEBB bounds a FCFS multiplexer of E.B.B. flows by
// aggregation (no independence needed).
func FCFSQueueTailEBB(chars []EBB, c, theta float64) (ExpTail, error) {
	return effbw.FCFSQueueTailEBB(chars, c, theta)
}

// AdmitFCFS is the classic effective-bandwidth admission rule for a FCFS
// multiplexer with target Pr{Q >= B} <= eps; it returns how many of the
// offered flows fit.
func AdmitFCFS(flows []EffBwFlow, c, B, eps float64) (int, error) {
	return effbw.AdmitFCFS(flows, c, B, eps)
}

// -------------------------------------------------------- monitoring ---

// ConformanceMonitor watches a flow online against its declared E.B.B.
// characterization (streaming counterpart of VerifyEBB).
type ConformanceMonitor = monitor.Monitor

// ConformanceReport is one (window, level) verdict.
type ConformanceReport = monitor.Report

// NewConformanceMonitor builds a monitor probing the given window lengths
// and excess levels.
func NewConformanceMonitor(char EBB, windows []int, levels []float64) (*ConformanceMonitor, error) {
	return monitor.New(char, windows, levels)
}

// ------------------------------------------------------ low-level ebb --

// SigmaHat evaluates the log-MGF overhead σ̂(θ) of an E.B.B. envelope
// (paper eq. 19) — exposed for users composing their own Chernoff bounds.
func SigmaHat(p EBB, theta float64) float64 { return p.SigmaHat(theta) }

// HolderExponents returns conjugate exponents maximizing the usable decay
// rate for dependent-flow bounds (paper Theorems 8/12).
func HolderExponents(alphas []float64) (ps []float64, thetaCeil float64) {
	return ebb.HolderExponents(alphas)
}

// FeasiblePartitionOf computes a server's feasible partition (paper §5).
func FeasiblePartitionOf(srv Server) (Partition, error) {
	return srv.FeasiblePartition()
}

// DecomposedRates distributes the server's rate slack equally over the
// sessions, returning the dedicated rates r_i = ρ_i + ε of the paper's
// §3 decomposition, which sum to at most the server rate exactly.
func DecomposedRates(srv Server) ([]float64, error) {
	return srv.DecomposedRates()
}

// FeasibleOrdering returns a session ordering satisfying paper eq. (5)
// for the given dedicated rates.
func FeasibleOrdering(srv Server, rates []float64) ([]int, error) {
	return srv.FeasibleOrdering(rates)
}
