/**
 * @file
 * The channel's per-base walk, shared by IdsChannel and ProfileChannel.
 *
 * Each input position draws one 53-bit value k and compares it with
 * integer thresholds (drawThreshold, util/rng.hh) in place of the
 * double compares `nextDouble() < p`: the same draws, the same
 * decisions, so every read is bit-identical to the double-compare
 * walk. The walk writes through a raw pointer into room sized for the
 * worst case, and the generator state lives in a local for the length
 * of the walk, so the loop keeps it in registers.
 */

#ifndef DNASTORE_CHANNEL_WALK_HH
#define DNASTORE_CHANNEL_WALK_HH

#include <cstddef>
#include <cstdint>

#include "channel/error_model.hh"
#include "channel/ids_channel.hh"
#include "dna/packed_strand.hh"
#include "dna/strand.hh"
#include "util/rng.hh"

namespace dnastore {

/**
 * One position's event thresholds over k = rng.next() >> 11:
 * k < ins inserts, k < del deletes, k < sub substitutes, and any
 * larger k copies the base. ins <= del <= sub.
 */
struct DrawThresholds
{
    uint64_t ins = 0;
    uint64_t del = 0;
    uint64_t sub = 0;

    /**
     * The thresholds of @p m with every rate scaled by @p mult. When
     * the scaled total would exceed 1 the three rates are clamped
     * proportionally: an error is certain, but the ins/del/sub split
     * keeps its shape. A valid model at mult 1 never clamps.
     */
    static DrawThresholds
    scaled(const ErrorModel &m, double mult)
    {
        double p_ins = m.insertion * mult;
        double p_del = p_ins + m.deletion * mult;
        double p_sub = p_del + m.substitution * mult;
        if (p_sub > 1.0) {
            double scale = 1.0 / p_sub;
            p_ins *= scale;
            p_del *= scale;
            p_sub = 1.0;
        }
        return { drawThreshold(p_ins), drawThreshold(p_del),
                 drawThreshold(p_sub) };
    }
};

namespace walk_detail {

inline const DrawThresholds &
at(const DrawThresholds &t, size_t)
{
    return t;
}

inline const DrawThresholds &
at(const DrawThresholds *t, size_t i)
{
    return t[i];
}

} // namespace walk_detail

/**
 * Transmit @p input through the channel into @p out, which must have
 * room for 2 * input.size() bases (each position emits at most two),
 * and return the number of bases written. @p thr is one
 * DrawThresholds for every position, or a pointer to input.size() of
 * them. At most one event per position: an insertion adds a uniform
 * base before the original, a substitution picks one of the three
 * other bases. Event counts are added to @p events when it is
 * non-null. @p input must not alias @p out.
 */
template <typename Thresholds>
inline size_t
transmitWalk(StrandView input, Rng &rng, Thresholds thr, Base *out,
             ChannelEvents *events)
{
    Rng r = rng;
    const Base *in = input.data();
    const size_t len = input.size();
    Base *w = out;
    size_t ins = 0, del = 0, sub = 0;
    for (size_t i = 0; i < len; ++i) {
        const DrawThresholds &t = walk_detail::at(thr, i);
        const uint64_t k = r.next() >> 11;
        if (k >= t.sub) {
            *w++ = in[i];
        } else if (k < t.ins) {
            *w++ = baseFromBits(unsigned(r.nextBelow(4)));
            *w++ = in[i];
            ++ins;
        } else if (k < t.del) {
            ++del;
        } else {
            const unsigned offset = 1u + unsigned(r.nextBelow(3));
            *w++ = baseFromBits(bitsFromBase(in[i]) + offset);
            ++sub;
        }
    }
    rng = r;
    if (events) {
        events->insertions += ins;
        events->deletions += del;
        events->substitutions += sub;
    }
    return size_t(w - out);
}

/** transmitWalk into @p out, which is resized to the read. */
template <typename Thresholds>
inline void
transmitWalk(StrandView input, Rng &rng, Thresholds thr, Strand &out,
             ChannelEvents *events)
{
    out.resize(2 * input.size());
    out.resize(transmitWalk(input, rng, thr, out.data(), events));
}

/**
 * transmitWalk appending the read as a new strand of @p out. The walk
 * runs in a warm per-thread buffer and only the read is copied, so the
 * arena never holds worst-case room and keeps the size its caller
 * reserved.
 */
template <typename Thresholds>
inline void
transmitWalk(StrandView input, Rng &rng, Thresholds thr, StrandArena &out,
             ChannelEvents *events)
{
    static thread_local Strand read;
    transmitWalk(input, rng, thr, read, events);
    out.append(read);
}

/**
 * Substitute each base of [@p bases, @p bases + n) with probability
 * drawn against @p threshold (one draw per base, then one nextBelow(3)
 * per substitution): the PCR polymerase and aging decay loops.
 */
inline void
substituteWalk(Base *bases, size_t n, Rng &rng, uint64_t threshold)
{
    Rng r = rng;
    for (size_t i = 0; i < n; ++i) {
        if ((r.next() >> 11) < threshold) {
            const unsigned offset = 1u + unsigned(r.nextBelow(3));
            bases[i] = baseFromBits(bitsFromBase(bases[i]) + offset);
        }
    }
    rng = r;
}

} // namespace dnastore

#endif // DNASTORE_CHANNEL_WALK_HH
