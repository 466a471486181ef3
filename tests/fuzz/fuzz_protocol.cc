/**
 * @file
 * Fuzz harness for the `dnastored` wire parser (daemon/protocol.cc):
 * frame extraction plus request/response payload decoding — the
 * exact bytes a hostile client (or bit-flipping network) can send.
 *
 * Checked invariants, beyond "never crash on arbitrary bytes":
 *
 *  - extractFrame never reports Ok without producing a payload and a
 *    consumed count that fits the buffer;
 *  - a payload extractFrame accepted re-frames to bytes extractFrame
 *    accepts again, with the identical payload;
 *  - a request decodeRequest accepted re-encodes through
 *    encodeRequest to a payload that decodes again (no decode-only
 *    request states reach the server);
 *  - same for responses through encodeResponse/decodeResponse.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "daemon/protocol.hh"
#include "fuzz/fuzz_common.hh"

using namespace dnastore;
using namespace dnastore::daemon;

namespace {

void
check(bool cond, const char *what)
{
    if (!cond) {
        std::fprintf(stderr, "fuzz_protocol invariant violated: %s\n", what);
        std::abort();
    }
}

void
exerciseRequest(const std::vector<uint8_t> &payload)
{
    Request req;
    std::string error;
    if (!decodeRequest(payload, &req, &error))
        return;
    std::vector<uint8_t> encoded = encodeRequest(req);
    Request again;
    check(decodeRequest(encoded, &again, &error),
          "re-encoded request failed to decode");
    check(again.op == req.op && again.tenant == req.tenant &&
              again.name == req.name && again.data == req.data &&
              again.trials == req.trials && again.trialSeed == req.trialSeed,
          "request fields changed across an encode/decode round trip");
}

void
exerciseResponse(const std::vector<uint8_t> &payload)
{
    Response resp;
    std::string error;
    if (!decodeResponse(payload, &resp, &error))
        return;
    std::vector<uint8_t> encoded = encodeResponse(resp);
    Response again;
    check(decodeResponse(encoded, &again, &error),
          "re-encoded response failed to decode");
    check(again.op == resp.op && again.wireCode == resp.wireCode &&
              again.message == resp.message && again.body == resp.body,
          "response fields changed across an encode/decode round trip");
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    std::vector<uint8_t> buf(data, data + size);

    std::vector<uint8_t> payload;
    size_t consumed = 0;
    std::string error;
    FrameStatus st = extractFrame(buf, &payload, &consumed, &error);
    if (st == FrameStatus::Ok) {
        check(consumed >= kFrameHeaderBytes && consumed <= buf.size(),
              "extractFrame consumed an impossible byte count");

        // A payload the framer accepted must survive re-framing.
        std::vector<uint8_t> reframed = frame(payload);
        std::vector<uint8_t> payload2;
        size_t consumed2 = 0;
        check(extractFrame(reframed, &payload2, &consumed2, &error) ==
                  FrameStatus::Ok,
              "re-framed payload failed to extract");
        check(payload2 == payload, "payload changed across a re-frame");

        exerciseRequest(payload);
        exerciseResponse(payload);
    }

    // The raw (unframed) bytes also reach the payload decoders in the
    // server's request path only after CRC verification, but the
    // decoders themselves must still be total functions of any input.
    exerciseRequest(buf);
    exerciseResponse(buf);
    return 0;
}

std::vector<std::vector<uint8_t>>
dnastoreFuzzSeeds()
{
    std::vector<std::vector<uint8_t>> seeds;

    auto seedRequest = [&seeds](Request req) {
        seeds.push_back(frame(encodeRequest(req)));
    };

    Request ping;
    ping.op = Op::Ping;
    seedRequest(ping);

    Request put;
    put.op = Op::Put;
    put.tenant = "tenant0";
    put.name = "obj.bin";
    put.data = { 1, 2, 3, 4, 5 };
    seedRequest(put);

    Request get;
    get.op = Op::Get;
    get.tenant = "tenant0";
    get.name = "obj.bin";
    seedRequest(get);

    Request list;
    list.op = Op::List;
    list.tenant = "tenant0";
    seedRequest(list);

    Request health;
    health.op = Op::Health;
    health.tenant = "tenant0";
    seedRequest(health);

    Request scrub;
    scrub.op = Op::Scrub;
    scrub.tenant = "tenant0";
    scrub.scrub.minReads = 6;
    scrub.scrub.minAgreement = 0.75;
    scrub.scrub.repairAll = true;
    seedRequest(scrub);

    Request trial;
    trial.op = Op::Trial;
    trial.tenant = "tenant0";
    trial.trials = 3;
    trial.trialSeed = 0x12345678u;
    seedRequest(trial);

    Request save;
    save.op = Op::Save;
    save.tenant = "tenant0";
    seedRequest(save);

    Response ok;
    ok.op = uint8_t(Op::Get);
    ok.wireCode = 0;
    ok.body = { 9, 8, 7 };
    seeds.push_back(frame(encodeResponse(ok)));

    Response err = errorResponse(uint8_t(Op::Put),
                                 api::Status::capacityExceeded("quota"));
    seeds.push_back(frame(encodeResponse(err)));

    seeds.push_back({});
    return seeds;
}
