/**
 * The dnastored wire protocol, without sockets: frame round trips,
 * request/response codecs, the Status-to-wire mapping, and the
 * corruption contract — every-byte flip and every-prefix truncation
 * sweeps must surface as clean protocol outcomes (Bad or NeedMore or
 * a failed decode), never as a silently accepted original payload and
 * never as UB (the sanitizer job runs this suite).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/wire.hh"
#include "daemon/protocol.hh"
#include "util/rng.hh"

using namespace dnastore;
using namespace dnastore::daemon;

namespace {

Request
sampleRequest()
{
    Request request;
    request.op = Op::Put;
    request.tenant = "alice";
    request.name = "hello.txt";
    request.data = { 'h', 'i', 0x00, 0xFF, 0x7F };
    return request;
}

std::vector<uint8_t>
framedSample()
{
    return frame(encodeRequest(sampleRequest()));
}

} // namespace

// ------------------------------------------------------------------ framing

TEST(Frame, RoundTripsEveryOp)
{
    for (uint8_t op = uint8_t(Op::Ping); op <= uint8_t(Op::Save);
         ++op) {
        Request request;
        request.op = Op(op);
        request.tenant = "tenant-a";
        request.name = "obj.bin";
        request.data = { 1, 2, 3 };
        request.scrub.minReads = 7;
        request.scrub.minAgreement = 0.625;
        request.scrub.repairAll = true;
        request.trials = 19;
        request.trialSeed = 0xDEADBEEFCAFEF00DULL;

        std::vector<uint8_t> wire = frame(encodeRequest(request));
        std::vector<uint8_t> payload;
        size_t consumed = 0;
        std::string error;
        ASSERT_EQ(extractFrame(wire, &payload, &consumed, &error),
                  FrameStatus::Ok)
            << error;
        EXPECT_EQ(consumed, wire.size());

        Request decoded;
        ASSERT_TRUE(decodeRequest(payload, &decoded, &error)) << error;
        EXPECT_EQ(decoded.op, request.op);
        EXPECT_EQ(decoded.tenant, request.tenant);
        if (request.op == Op::Put || request.op == Op::Get) {
            EXPECT_EQ(decoded.name, request.name);
        }
        if (request.op == Op::Put) {
            EXPECT_EQ(decoded.data, request.data);
        }
        if (request.op == Op::Scrub) {
            EXPECT_EQ(decoded.scrub.minReads, request.scrub.minReads);
            EXPECT_EQ(decoded.scrub.minAgreement,
                      request.scrub.minAgreement);
            EXPECT_EQ(decoded.scrub.repairAll, request.scrub.repairAll);
        }
        if (request.op == Op::Trial) {
            EXPECT_EQ(decoded.trials, request.trials);
            EXPECT_EQ(decoded.trialSeed, request.trialSeed);
        }
    }
}

TEST(Frame, PipelinedFramesExtractInOrder)
{
    Request a = sampleRequest();
    Request b;
    b.op = Op::Get;
    b.tenant = "bob";
    b.name = "x";
    std::vector<uint8_t> wire = frame(encodeRequest(a));
    std::vector<uint8_t> second = frame(encodeRequest(b));
    wire.insert(wire.end(), second.begin(), second.end());

    std::vector<uint8_t> payload;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(extractFrame(wire, &payload, &consumed, &error),
              FrameStatus::Ok);
    Request first;
    ASSERT_TRUE(decodeRequest(payload, &first, &error));
    EXPECT_EQ(first.tenant, "alice");
    wire.erase(wire.begin(), wire.begin() + std::ptrdiff_t(consumed));
    ASSERT_EQ(extractFrame(wire, &payload, &consumed, &error),
              FrameStatus::Ok);
    Request next;
    ASSERT_TRUE(decodeRequest(payload, &next, &error));
    EXPECT_EQ(next.tenant, "bob");
    EXPECT_EQ(consumed, wire.size());
}

TEST(Frame, EveryPrefixTruncationIsNeedMoreNeverOk)
{
    const std::vector<uint8_t> wire = framedSample();
    for (size_t n = 0; n < wire.size(); ++n) {
        std::vector<uint8_t> prefix(wire.begin(),
                                    wire.begin() + std::ptrdiff_t(n));
        std::vector<uint8_t> payload;
        size_t consumed = 0;
        std::string error;
        FrameStatus fs =
            extractFrame(prefix, &payload, &consumed, &error);
        EXPECT_NE(fs, FrameStatus::Ok) << "prefix length " << n;
        // A well-formed prefix is NeedMore; only a prefix long enough
        // to expose the (uncorrupted) header can never be Bad.
        EXPECT_EQ(fs, FrameStatus::NeedMore) << "prefix length " << n;
    }
}

TEST(Frame, EveryByteCorruptionIsDetected)
{
    const std::vector<uint8_t> wire = framedSample();
    const Request original = sampleRequest();
    for (size_t i = 0; i < wire.size(); ++i) {
        for (uint8_t delta : { uint8_t(0xFF), uint8_t(0x01) }) {
            std::vector<uint8_t> corrupt = wire;
            corrupt[i] = uint8_t(corrupt[i] ^ delta);
            std::vector<uint8_t> payload;
            size_t consumed = 0;
            std::string error;
            FrameStatus fs =
                extractFrame(corrupt, &payload, &consumed, &error);
            if (fs == FrameStatus::Bad) {
                EXPECT_FALSE(error.empty());
                continue; // detected outright
            }
            if (fs == FrameStatus::NeedMore)
                continue; // length grew: the stream just stalls
            // A flip that still extracts a frame must not reproduce
            // the original request bytes (CRC-32 catches every
            // single-byte error in the payload, so Ok here could only
            // come from a length-field flip shortening the payload).
            ASSERT_EQ(fs, FrameStatus::Ok);
            EXPECT_NE(payload, encodeRequest(original))
                << "byte " << i << " delta " << int(delta);
        }
    }
}

TEST(Frame, RejectsBadMagicLengthAndCrc)
{
    std::vector<uint8_t> wire = framedSample();
    std::vector<uint8_t> payload;
    size_t consumed = 0;
    std::string error;

    std::vector<uint8_t> magic = wire;
    magic[0] = 'X';
    EXPECT_EQ(extractFrame(magic, &payload, &consumed, &error),
              FrameStatus::Bad);
    EXPECT_NE(error.find("magic"), std::string::npos);

    std::vector<uint8_t> zero_len = wire;
    zero_len[4] = zero_len[5] = zero_len[6] = zero_len[7] = 0;
    EXPECT_EQ(extractFrame(zero_len, &payload, &consumed, &error),
              FrameStatus::Bad);
    EXPECT_NE(error.find("length"), std::string::npos);

    std::vector<uint8_t> wild_len = wire;
    wild_len[7] = 0xFF; // length >> 8 MiB
    EXPECT_EQ(extractFrame(wild_len, &payload, &consumed, &error),
              FrameStatus::Bad);
    EXPECT_NE(error.find("length"), std::string::npos);

    std::vector<uint8_t> bad_crc = wire;
    bad_crc[8] = uint8_t(bad_crc[8] ^ 0xA5);
    EXPECT_EQ(extractFrame(bad_crc, &payload, &consumed, &error),
              FrameStatus::Bad);
    EXPECT_NE(error.find("CRC"), std::string::npos);
}

// ------------------------------------------------------------- request codec

TEST(RequestCodec, RejectsUnknownOpcode)
{
    std::vector<uint8_t> payload = encodeRequest(sampleRequest());
    payload[0] = 0x7E;
    Request out;
    std::string error;
    EXPECT_FALSE(decodeRequest(payload, &out, &error));
    EXPECT_NE(error.find("opcode"), std::string::npos);
}

TEST(RequestCodec, RejectsEveryTruncation)
{
    const std::vector<uint8_t> payload =
        encodeRequest(sampleRequest());
    for (size_t n = 0; n < payload.size(); ++n) {
        std::vector<uint8_t> prefix(
            payload.begin(), payload.begin() + std::ptrdiff_t(n));
        Request out;
        std::string error;
        EXPECT_FALSE(decodeRequest(prefix, &out, &error))
            << "prefix length " << n;
        EXPECT_FALSE(error.empty());
    }
}

TEST(RequestCodec, RejectsTrailingBytes)
{
    std::vector<uint8_t> payload = encodeRequest(sampleRequest());
    payload.push_back(0x00);
    Request out;
    std::string error;
    EXPECT_FALSE(decodeRequest(payload, &out, &error));
    EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(RequestCodec, RejectsPathTenantNames)
{
    // Tenant names become <root>/<tenant>.dnapool paths; the zip-slip
    // name rule must hold on the wire too.
    for (const char *evil :
         { "../etc", "a/b", "", ".", "..", "/abs" }) {
        Request request;
        request.op = Op::List;
        request.tenant = evil;
        Request out;
        std::string error;
        EXPECT_FALSE(
            decodeRequest(encodeRequest(request), &out, &error))
            << "tenant '" << evil << "' must be rejected";
        EXPECT_FALSE(error.empty());
    }
}

TEST(RequestCodec, PingNeedsNoTenant)
{
    Request request;
    request.op = Op::Ping;
    Request out;
    std::string error;
    EXPECT_TRUE(decodeRequest(encodeRequest(request), &out, &error))
        << error;
}

// ------------------------------------------------------------ response codec

TEST(ResponseCodec, RoundTripsStatusAndBody)
{
    Response response;
    response.op = uint8_t(Op::Get);
    response.wireCode =
        api::statusCodeToWire(api::StatusCode::CapacityExceeded);
    response.message = "tenant 'alice' quota exceeded";
    response.body = { 9, 8, 7 };

    Response decoded;
    std::string error;
    ASSERT_TRUE(
        decodeResponse(encodeResponse(response), &decoded, &error))
        << error;
    EXPECT_EQ(decoded.op, response.op);
    EXPECT_EQ(decoded.body, response.body);
    api::Status status = decoded.status();
    EXPECT_EQ(status.code(), api::StatusCode::CapacityExceeded);
    EXPECT_EQ(status.message(), response.message);
}

TEST(ResponseCodec, ErrorResponseCarriesTheStatus)
{
    api::Status status =
        api::Status::notFound("no object named 'x'");
    Response response = errorResponse(uint8_t(Op::Get), status);
    EXPECT_TRUE(response.body.empty());
    api::Status back = response.status();
    EXPECT_EQ(back.code(), api::StatusCode::NotFound);
    EXPECT_EQ(back.message(), status.message());
}

// ------------------------------------------------------------- wire mapping

TEST(WireStatus, EveryCodeRoundTrips)
{
    const api::StatusCode codes[] = {
        api::StatusCode::Ok,
        api::StatusCode::InvalidArgument,
        api::StatusCode::NotFound,
        api::StatusCode::AlreadyExists,
        api::StatusCode::CapacityExceeded,
        api::StatusCode::FailedPrecondition,
        api::StatusCode::DataLoss,
        api::StatusCode::Unavailable,
        api::StatusCode::Internal,
    };
    for (api::StatusCode code : codes) {
        bool known = false;
        EXPECT_EQ(
            api::statusCodeFromWire(api::statusCodeToWire(code),
                                    &known),
            code);
        EXPECT_TRUE(known);
    }
}

TEST(WireStatus, UnknownWireCodeMapsToInternal)
{
    bool known = true;
    EXPECT_EQ(api::statusCodeFromWire(0xFFFF, &known),
              api::StatusCode::Internal);
    EXPECT_FALSE(known);
}

// ------------------------------------------------------------- trial seeds

TEST(TrialSeeds, DeterministicAndDistinct)
{
    std::vector<uint64_t> a = drawTrialSeeds(20220618, 32);
    std::vector<uint64_t> b = drawTrialSeeds(20220618, 32);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), 32u);
    for (size_t i = 0; i < a.size(); ++i)
        for (size_t j = i + 1; j < a.size(); ++j)
            EXPECT_NE(a[i], a[j]) << i << "," << j;
    // Matches the documented stream so direct Store callers can
    // reproduce the daemon's schedule.
    EXPECT_EQ(a[0],
              splitmix64Mix(20220618 + 0x9e3779b97f4a7c15ULL));
}
