/**
 * @file
 * Abstract workload interface with checkpoint support.
 *
 * A TraceSource stands in for the paper's KVM guest: it produces the
 * dynamic instruction stream on demand and supports cheap state snapshots
 * (clone), which is what lets Time Traveling run several passes over the
 * same execution. Generators must be fully deterministic: two clones
 * advanced by the same number of instructions yield identical streams.
 *
 * Every implementation — generator or file-backed — obeys the same
 * contract, asserted suite-wide by tests/test_trace_io.cc:
 *
 *  - clone(): two clones advanced by N instructions produce identical
 *    suffix streams, and cloning never perturbs the source;
 *  - skip(n) is state-equivalent to calling next() n times;
 *  - memLines(lines, n) writes line() of each memory access among the
 *    next n records, in stream order, and is state-equivalent to
 *    calling next() n times;
 *  - reset() reproduces the exact prefix stream from instruction 0.
 *
 * next() is the reference. An override of skip() or memLines() may be
 * a separate implementation (SyntheticTrace runs both through a block
 * pipeline that shares no per-instruction code with next()), so each
 * override is pinned against next() rather than trusted by
 * construction: tests/test_trace_io.cc for every source, and
 * tests/test_workload.cc at scale on every generator profile.
 *
 * For file-backed sources (workload/trace_io.hh, champsim_trace.hh)
 * the "checkpoint" that clone() snapshots is the file offset plus
 * whatever decoder state is in flight (for the fixed-width native
 * format: nothing; for ChampSim records: the pending expansion queue).
 * That makes a checkpoint store over a recorded trace cost a few
 * integers per checkpoint — the same role the paper's library of KVM
 * snapshots plays, at none of the memory cost. File-backed skip() is a
 * seek where the format allows (fixed-width records), so positioning a
 * clone deep into the trace decodes nothing. Clones hold independent
 * file handles: concurrent passes over one checkpoint store never
 * share mutable I/O state (the property core/parallel.hh relies on).
 */

#ifndef DELOREAN_WORKLOAD_TRACE_SOURCE_HH
#define DELOREAN_WORKLOAD_TRACE_SOURCE_HH

#include <memory>
#include <string>

#include "workload/instruction.hh"

namespace delorean::workload
{

/**
 * Deterministic, checkpointable instruction stream.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next dynamic instruction and advance. */
    virtual Instruction next() = 0;

    /** Number of instructions produced so far. */
    virtual InstCount position() const = 0;

    /**
     * Snapshot the full generator state. The clone continues from the
     * current position and produces the identical suffix stream.
     * This is our stand-in for a KVM checkpoint.
     */
    virtual std::unique_ptr<TraceSource> clone() const = 0;

    /** Rewind to instruction 0 (identical stream from the start). */
    virtual void reset() = 0;

    /** Workload display name. */
    virtual const std::string &name() const = 0;

    /**
     * Advance @p n instructions without inspecting them. The default
     * implementation just discards; generators may override with a faster
     * path, which must stay state-equivalent to calling next() n times
     * (the contract tests compare the two).
     */
    virtual void
    skip(InstCount n)
    {
        for (InstCount i = 0; i < n; ++i)
            (void)next();
    }

    /**
     * Advance exactly @p n instructions, writing the cacheline number
     * of each memory access, in stream order, to @p lines (which must
     * hold at least @p n entries). @return the number of lines written.
     *
     * State-equivalent to calling next() @p n times and keeping
     * line() of the isMem() records — the contract tests assert this
     * for every source. The default does exactly that; generators and
     * file readers override it to elide record materialization and
     * per-instruction virtual dispatch (SyntheticTrace: the block
     * pipeline it shares with skip()). This is the Explorer
     * checkpoint-replay fast path: its inner loops only ever need the
     * memory-reference line stream (docs/performance.md).
     */
    virtual InstCount
    memLines(Addr *lines, InstCount n)
    {
        InstCount m = 0;
        for (InstCount i = 0; i < n; ++i) {
            const Instruction inst = next();
            if (inst.isMem())
                lines[m++] = inst.line();
        }
        return m;
    }
};

} // namespace delorean::workload

#endif // DELOREAN_WORKLOAD_TRACE_SOURCE_HH
