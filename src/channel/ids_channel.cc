#include "channel/ids_channel.hh"

#include <stdexcept>
#include <string>

#include "channel/walk.hh"

namespace dnastore {

IdsChannel::IdsChannel(const ErrorModel &model)
    : model_(model)
{
    if (const char *err = model.check())
        throw std::invalid_argument(std::string("IdsChannel: ") + err);
}

Strand
IdsChannel::transmit(const Strand &input, Rng &rng,
                     ChannelEvents *events) const
{
    // Walk in a warm buffer; the copy returned is exactly sized.
    static thread_local Strand scratch;
    transmitInto(input, rng, scratch, events);
    return scratch;
}

void
IdsChannel::transmitInto(StrandView input, Rng &rng, Strand &out,
                         ChannelEvents *events) const
{
    transmitWalk(input, rng, DrawThresholds::scaled(model_, 1.0), out, events);
}

void
IdsChannel::transmitAppend(StrandView input, Rng &rng, StrandArena &out,
                           ChannelEvents *events) const
{
    transmitWalk(input, rng, DrawThresholds::scaled(model_, 1.0), out, events);
}

std::vector<Strand>
IdsChannel::transmitCluster(const Strand &input, size_t n, Rng &rng) const
{
    std::vector<Strand> reads;
    reads.reserve(n);
    for (size_t i = 0; i < n; ++i)
        reads.push_back(transmit(input, rng));
    return reads;
}

void
IdsChannel::transmitClusterInto(StrandView input, size_t n, Rng &rng,
                                StrandArena &out) const
{
    out.reserve(out.totalBases() + n * (input.size() + 8),
                out.strandCount() + n);
    for (size_t i = 0; i < n; ++i)
        transmitAppend(input, rng, out);
}

} // namespace dnastore
