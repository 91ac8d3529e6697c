package sim

// OpKind identifies one machine operation.
type OpKind uint8

const (
	// OpCompute spends Cycles cycles of pure computation.
	OpCompute OpKind = iota
	// OpLoad reads Addr through the cache hierarchy.
	OpLoad
	// OpStore writes Addr (modelled identically to OpLoad).
	OpStore
	// OpLoadN performs the loads in Addrs back-to-back in one round;
	// other contexts do not interleave within the batch.
	OpLoadN
	// OpAtomicUnaligned locks the memory bus for an atomic access
	// spanning two lines at Addr.
	OpAtomicUnaligned
	// OpDiv issues one integer division.
	OpDiv
	// OpDivN issues Count back-to-back divisions in one round.
	OpDivN
	// OpNow reads the context's clock.
	OpNow
	// OpWaitUntil sleeps until absolute cycle Cycles (a no-op when it
	// is already past).
	OpWaitUntil
	// OpTLBProbe looks up Addr's translation in the core's shared TLB
	// (filling on a miss) without touching the cache hierarchy.
	OpTLBProbe
)

// Op is one decoded machine operation. It is the unit of work the
// engine executes: programs hand ops to the engine by value, so the
// steady-state execution path performs no per-op allocation.
type Op struct {
	Kind   OpKind
	Addr   uint64   // OpLoad / OpStore / OpAtomicUnaligned target
	Addrs  []uint64 // OpLoadN batch (owned by the program; stable until its next Step)
	Cycles uint64   // OpCompute amount / OpWaitUntil absolute target
	Count  int      // OpDivN count
}

// OpResult is the engine's reply to an executed Op. Both fields are
// the program-observable values: with a fuzzy-clock mitigation active
// they are degraded, while the architectural clock is not.
type OpResult struct {
	Now     uint64 // context clock after the op
	Latency uint64 // cycles from issue to completion
}

// Program is the code a software process runs: a resumable state
// machine the engine drives with direct calls. The engine calls Step to
// obtain the next operation, executes it, and passes the result to the
// following Step call, so op execution is a plain function call with no
// goroutine, channel or per-op allocation.
//
// A Program instance holds per-run state and must not be spawned into
// more than one process.
type Program interface {
	// Name labels the process for reporting.
	Name() string
	// Begin hands the program its machine handle before the first
	// Step.
	Begin(m *Machine)
	// Step returns the next operation given the previous op's result.
	// The first call receives the zero OpResult. ok=false means the
	// program finished; Step is never called again.
	Step(prev OpResult) (op Op, ok bool)
}
