/**
 * @file
 * Quickstart: store a file in simulated DNA and read it back —
 * through the public `dnastore::api` façade.
 *
 * Demonstrates the stable API surface: open a Store with
 * builder-validated options, put() named objects, let the store
 * drive synthesis, the noisy channel, sequencing, consensus, and
 * Reed-Solomon decoding, then get() the bytes back. Every fallible
 * call returns a Status/Result instead of throwing — the error
 * handling below is the whole contract.
 */

#include <cstdio>
#include <string>

#include "api/api.hh"

using namespace dnastore;

int
main()
{
    // 1. A store: tinyTest geometry (GF(2^8), 12 rows, ~18%
    //    redundancy), Gini's interleaved layout, a 6% IDS channel
    //    read at coverage 12.
    api::StoreOptions options = api::StoreOptions::tiny();
    options.layout(LayoutScheme::Gini).unitSeed(42);
    api::ChannelOptions channel;
    channel.errorRate(0.06).coverage(12);

    api::Result<api::Store> opened =
        api::Store::open(options, channel);
    if (!opened.ok()) {
        std::printf("open failed: %s\n",
                    opened.status().toString().c_str());
        return 1;
    }
    api::Store &store = *opened;
    StorageConfig cfg = store.unitConfig();
    std::printf("unit geometry: %zu molecules x %zu symbols, "
                "%zu-base strands, %.1f%% redundancy\n",
                cfg.codewordLen(), cfg.rows, cfg.strandLen(),
                100.0 * cfg.redundancyFraction());

    // 2. Something to store.
    std::string text =
        "DNA is emerging as an increasingly attractive medium for "
        "data storage due to its unprecedented durability and "
        "density. This very sentence has survived synthesis, PCR, "
        "sequencing at 6% error rate, trace reconstruction, and "
        "Reed-Solomon decoding.";
    api::Status status = store.put(
        "hello.txt", std::vector<uint8_t>(text.begin(), text.end()));
    if (!status.ok()) {
        std::printf("put failed: %s\n", status.toString().c_str());
        return 1;
    }

    // 3. Errors are values, not exceptions: a bad name and a
    //    duplicate come back as documented StatusCodes.
    std::printf("put(\"\")          -> %s\n",
                api::statusCodeName(
                    store.put("", {}).code()));
    std::printf("put(duplicate)   -> %s\n",
                api::statusCodeName(
                    store.put("hello.txt", {}).code()));

    // 4. Retrieve at coverage 8 (a pool prefix of the synthesized
    //    unit: 8 noisy reads per molecule).
    api::Result<api::Retrieval> retrieval = store.retrieveAt(8);
    if (!retrieval.ok()) {
        std::printf("retrieve failed: %s\n",
                    retrieval.status().toString().c_str());
        return 1;
    }
    std::printf("retrieved at coverage 8: exact=%s, %zu symbol errors "
                "corrected across %zu codewords, %zu molecules lost\n",
                retrieval->exact ? "yes" : "no",
                retrieval->correctedErrors,
                retrieval->errorsPerCodeword.size(),
                retrieval->erasedColumns);

    // 5. get() is the strict read path: bytes only on exact recovery
    //    (NotFound / DataLoss otherwise).
    api::Result<std::vector<uint8_t>> bytes = store.get("hello.txt");
    if (bytes.ok()) {
        std::printf("recovered hello.txt (%zu bytes): \"%.60s...\"\n",
                    bytes->size(),
                    reinterpret_cast<const char *>(bytes->data()));
    } else {
        std::printf("get failed: %s\n",
                    bytes.status().toString().c_str());
    }
    std::printf("get(missing)     -> %s\n",
                api::statusCodeName(
                    store.get("missing.txt").status().code()));

    // 6. How cheap can reading get? Find the minimum coverage.
    api::Result<size_t> min_cov = store.minExactCoverage(2, 12);
    if (min_cov.ok())
        std::printf("minimum coverage for error-free decoding: %zu\n",
                    *min_cov);

    // 7. Ship the unit text a synthesizer would receive.
    api::Result<api::EncodedArtifact> artifact = store.encode();
    if (artifact.ok())
        std::printf("encode: %zu strands, %zu payload bits\n",
                    artifact->strands.size(), artifact->payloadBits);
    return 0;
}
