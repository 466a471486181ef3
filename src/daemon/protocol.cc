#include "daemon/protocol.hh"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "api/wire.hh"
#include "pipeline/bundle.hh"
#include "util/byteio.hh"
#include "util/crc32.hh"
#include "util/rng.hh"

namespace dnastore {
namespace daemon {

namespace {

/** Tenant namespaces become `<root>/<tenant>.dnapool` paths, so the
 * same single-plain-path-component rule that blocks zip-slip object
 * names guards them. */
const char *
checkTenantName(const std::string &tenant)
{
    return FileBundle::checkName(tenant);
}

uint64_t
doubleBits(double v)
{
    uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v, "double is not 64-bit");
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

double
bitsDouble(uint64_t bits)
{
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

bool
knownOp(uint8_t op)
{
    return op >= uint8_t(Op::Ping) && op <= uint8_t(Op::Save);
}

bool
fail(std::string *error, const char *why)
{
    if (error != nullptr)
        *error = why;
    return false;
}

} // namespace

const char *
checkTrialCount(uint64_t trials)
{
    if (trials == 0 || trials > 100000)
        return "trial count must be in [1, 100000]";
    return nullptr;
}

api::Status
Response::status() const
{
    return api::statusFromWire(wireCode, message);
}

std::vector<uint8_t>
frame(const std::vector<uint8_t> &payload)
{
    ByteWriter w;
    w.u32(kFrameMagic);
    w.u32(uint32_t(payload.size()));
    w.u32(crc32(payload));
    w.bytes(payload);
    return w.take();
}

bool
sendAll(int fd, const std::vector<uint8_t> &bytes)
{
    size_t done = 0;
    while (done < bytes.size()) {
        ssize_t w = ::send(fd, bytes.data() + done, bytes.size() - done,
                           MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += size_t(w);
    }
    return true;
}

FrameStatus
extractFrame(const std::vector<uint8_t> &buf,
             std::vector<uint8_t> *payload, size_t *consumed,
             std::string *error)
{
    auto bad = [&](const char *why) {
        if (error != nullptr)
            *error = why;
        return FrameStatus::Bad;
    };
    if (buf.size() < kFrameHeaderBytes)
        return FrameStatus::NeedMore;
    ByteReader r(buf.data(), kFrameHeaderBytes);
    const uint32_t magic = r.u32();
    const uint32_t length = r.u32();
    const uint32_t crc = r.u32();
    if (magic != kFrameMagic)
        return bad("bad frame magic (not a dnastored peer?)");
    if (length == 0 || length > kMaxFramePayload)
        return bad("frame length outside [1, 8 MiB] "
                   "(corrupted length field)");
    if (buf.size() < kFrameHeaderBytes + length)
        return FrameStatus::NeedMore;
    const uint8_t *body = buf.data() + kFrameHeaderBytes;
    if (crc32(body, length) != crc)
        return bad("frame payload CRC mismatch (corrupted in flight)");
    payload->assign(body, body + length);
    *consumed = kFrameHeaderBytes + length;
    return FrameStatus::Ok;
}

std::vector<uint8_t>
encodeRequest(const Request &request)
{
    ByteWriter w;
    w.u8(uint8_t(request.op));
    w.u16(uint16_t(request.tenant.size()));
    w.str(request.tenant);
    switch (request.op) {
      case Op::Put:
        w.u16(uint16_t(request.name.size()));
        w.str(request.name);
        w.u32(uint32_t(request.data.size()));
        w.bytes(request.data);
        break;
      case Op::Get:
        w.u16(uint16_t(request.name.size()));
        w.str(request.name);
        break;
      case Op::Scrub:
        w.u64(request.scrub.minReads);
        w.u64(doubleBits(request.scrub.minAgreement));
        w.u8(request.scrub.repairAll ? 1 : 0);
        break;
      case Op::Trial:
        w.u32(request.trials);
        w.u64(request.trialSeed);
        break;
      case Op::Ping:
      case Op::List:
      case Op::Health:
      case Op::Save:
        break;
    }
    return w.take();
}

bool
decodeRequest(const std::vector<uint8_t> &payload, Request *out,
              std::string *error)
{
    ByteReader r(payload);
    const uint8_t op = r.u8();
    if (!r.ok())
        return fail(error, "request truncated before the opcode");
    if (!knownOp(op))
        return fail(error, "unknown request opcode");
    out->op = Op(op);
    out->tenant = r.str(r.u16());
    if (!r.ok())
        return fail(error, "request truncated in the tenant field");
    if (out->op != Op::Ping) {
        if (const char *why = checkTenantName(out->tenant))
            return fail(error, why);
    }
    switch (out->op) {
      case Op::Put:
        out->name = r.str(r.u16());
        out->data = r.vec(r.u32());
        break;
      case Op::Get:
        out->name = r.str(r.u16());
        break;
      case Op::Scrub:
        out->scrub.minReads = size_t(r.u64());
        out->scrub.minAgreement = bitsDouble(r.u64());
        out->scrub.repairAll = r.u8() != 0;
        break;
      case Op::Trial:
        out->trials = r.u32();
        out->trialSeed = r.u64();
        break;
      case Op::Ping:
      case Op::List:
      case Op::Health:
      case Op::Save:
        break;
    }
    if (!r.ok())
        return fail(error, "request truncated in the op fields");
    if (r.remaining() != 0)
        return fail(error, "trailing bytes after the request fields");
    return true;
}

std::vector<uint8_t>
encodeResponse(const Response &response)
{
    ByteWriter w;
    w.u8(response.op);
    w.u32(response.wireCode);
    w.u32(uint32_t(response.message.size()));
    w.str(response.message);
    w.u32(uint32_t(response.body.size()));
    w.bytes(response.body);
    return w.take();
}

bool
decodeResponse(const std::vector<uint8_t> &payload, Response *out,
               std::string *error)
{
    ByteReader r(payload);
    out->op = r.u8();
    out->wireCode = r.u32();
    out->message = r.str(r.u32());
    out->body = r.vec(r.u32());
    if (!r.ok())
        return fail(error, "response truncated");
    if (r.remaining() != 0)
        return fail(error, "trailing bytes after the response fields");
    return true;
}

Response
errorResponse(uint8_t op, const api::Status &status)
{
    Response response;
    response.op = op;
    response.wireCode = api::statusCodeToWire(status.code());
    response.message = status.message();
    return response;
}

std::vector<uint64_t>
drawTrialSeeds(uint64_t seed, size_t trials)
{
    // The Scenario Lab discipline: seeds are pre-drawn serially from
    // one stateless stream, so any fan-out schedule downstream is
    // invisible in the results.
    std::vector<uint64_t> seeds(trials);
    for (size_t i = 0; i < trials; ++i)
        seeds[i] = splitmix64Mix(seed + 0x9e3779b97f4a7c15ULL * (i + 1));
    return seeds;
}

} // namespace daemon
} // namespace dnastore
