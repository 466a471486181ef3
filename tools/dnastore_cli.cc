/**
 * @file
 * dnastore command-line tool — a thin shell over `dnastore::api`.
 *
 * Subcommands:
 *   encode   <files...> --out unit.dna [--scheme gini|baseline|dnamapper]
 *            Encode files into a DNA unit; writes one ACGT strand per
 *            line (FASTA-ish flat format).
 *   decode   <unit.dna> --outdir DIR
 *            Read strands back (one cluster per original line group),
 *            run consensus + ECC, and write the recovered files.
 *   simulate <files...> [--scheme ...] [--error-rate p] [--coverage n]
 *            [--ins-rate p] [--del-rate p] [--sub-rate p]
 *            [--gamma-mean m --gamma-shape k]
 *            [--threads t] [--packed-pools] [--cluster]
 *            [--cluster-qgram q] [--cluster-maxdist f]
 *            End-to-end store/retrieve through the noisy channel and
 *            report recovery statistics. With --cluster the reads are
 *            regrouped by the real clusterer (instead of the perfect-
 *            clustering assumption) before decoding.
 *   sweep    --scenario NAME|all [--trials n] [--threads t] [--seed s]
 *            [--json FILE] [--csv FILE] [--timing] [--list]
 *            [--from-pool FILE]
 *            Deterministic Monte-Carlo reliability sweep over the
 *            Scenario Lab's named hostile channel profiles; emits a
 *            structured JSON (and optionally CSV) report. The JSON is
 *            byte-identical for every --threads value. With
 *            --from-pool the scenarios store a pool file's real
 *            objects (and its geometry) instead of the synthetic
 *            payload.
 *   pack     <files...> [--out store.dnapool] [--scheme ...]
 *            [channel flags] [--no-pools]
 *            Encode files and save the unit — read pools included
 *            unless --no-pools — as a versioned, checksummed
 *            `.dnapool` file (the durable store format).
 *   unpack   <store.dnapool> --outdir DIR
 *            Reopen a pool file read-only, retrieve every object
 *            through the decode path, and write the recovered files.
 *   health   <store.dnapool> [--json FILE] [--threads t]
 *            Probe-decode the pool at full depth and emit the health
 *            report (per-cluster live reads and consensus agreement,
 *            per-codeword RS correction split and remaining margin)
 *            as deterministic JSON — byte-identical for every
 *            --threads value.
 *   scrub    <store.dnapool> [--out FILE] [--age N --age-loss p
 *            --age-sub p] [--min-reads n] [--min-agreement f]
 *            [--repair-all] [--json FILE]
 *            Optionally age the pool N epochs, then scrub it: probe-
 *            decode, select low-margin clusters, re-synthesize them
 *            from the RS-repaired data, and save the repaired pool
 *            back (to --out, or in place). Scrub synthesis noise
 *            comes from the channel flags, so identical invocations
 *            produce byte-identical repaired files.
 *   simulate/sweep also accept --from-pool FILE to run against a
 *            previously packed store instead of fresh inputs.
 *   serve    --root DIR [--port P] [--port-file FILE] [--quota BYTES]
 *            Run `dnastored`: a concurrent multi-tenant storage
 *            daemon on localhost TCP (daemon/server.hh). Each tenant
 *            namespace is backed by its own `<root>/<tenant>.dnapool`
 *            with an optional byte quota. SIGTERM/SIGINT drain
 *            gracefully: in-flight requests finish, dirty pools save
 *            atomically.
 *   client   <op> [ARG] --connect PORT [--tenant T]
 *            Talk to a running dnastored: ping, put, get, list,
 *            health, scrub, trial, save. Statuses (and their
 *            messages) cross the wire unchanged, so errors and exit
 *            codes match the equivalent local subcommand.
 *   --version
 *            Print the library version and exit.
 *
 * The unit format produced by `encode` is noiseless (it is what a
 * synthesizer would receive); `simulate` and `sweep` are where the
 * channel lives. All parameter validation happens in the API's
 * option builders (api/options.hh) — the CLI prints the builder's
 * Status message verbatim, so the CLI and the API reject identical
 * inputs with identical messages.
 *
 * Exit codes (documented in --help and the README):
 *   0  success (exact recovery / all scenarios passed)
 *   1  runtime failure (I/O error, unrecoverable unit)
 *   2  usage or validation error (bad flag, rejected parameter)
 *   3  quality threshold miss (inexact recovery, scenario below its
 *      reliability bound)
 */

#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hh"
#include "daemon/client.hh"
#include "daemon/server.hh"
#include "lab/report.hh"
#include "lab/scenario.hh"
#include "lab/sweep.hh"
#include "util/parse.hh"

using namespace dnastore;

namespace {

// The documented exit-code contract.
constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;
constexpr int kExitThreshold = 3;

struct CliOptions
{
    std::vector<std::string> inputs;
    std::string out = "unit.dna";
    std::string outdir = ".";
    LayoutScheme scheme = LayoutScheme::Gini;
    double errorRate = 0.06;
    bool errorRateSet = false;
    double insRate = 0.0;
    double delRate = 0.0;
    double subRate = 0.0;
    bool ratesSet = false;
    double gammaMean = 0.0;
    double gammaShape = 0.0;
    bool gammaSet = false;
    size_t coverage = 10;
    bool coverageSet = false;
    size_t threads = 1; // 0 = all hardware threads
    bool packedPools = false;
    bool cluster = false;
    size_t clusterQgram = ClusterParams().qgram;
    double clusterMaxDist = ClusterParams().maxDistanceFrac;
    size_t clusterMemoryMb = 0;
    std::string clusterSpillDir;
    bool clusterKnobsSet = false;
    // pack/unpack/--from-pool
    std::string fromPool; // empty = none
    bool noPools = false;
    bool outSet = false;
    // health/scrub
    size_t ageEpochs = 0;
    AgingProfile aging;
    bool agingSet = false;
    api::ScrubOptions scrub;
    // sweep
    std::string scenario = "all";
    size_t trials = 100;
    uint64_t seed = 20220618;
    std::string jsonPath;   // empty = stdout
    std::string csvPath;    // empty = no CSV
    bool timing = false;
    bool list = false;
    // serve/client (dnastored)
    uint64_t port = 0;        // 0 = ephemeral
    std::string root;         // serve: tenant pool directory
    uint64_t quotaBytes = 0;  // 0 = no quota
    std::string portFile;     // serve: write the bound port here
    uint64_t connectPort = 0; // client: server port
    std::string tenant = "default";
    std::string objName;      // client put: override object name
    bool ok = true;
};

/** Print a rejected parameter exactly as the API words it. */
void
printStatus(const api::Status &status)
{
    std::fprintf(stderr, "%s\n", status.message().c_str());
}

/** Map an API failure onto the documented exit codes. */
int
statusExit(const api::Status &status)
{
    switch (status.code()) {
      case api::StatusCode::InvalidArgument:
      case api::StatusCode::AlreadyExists:
      case api::StatusCode::CapacityExceeded:
      case api::StatusCode::FailedPrecondition:
        return kExitUsage;
      default:
        return kExitRuntime;
    }
}

CliOptions
parseArgs(int argc, char **argv, int first)
{
    CliOptions opt;
    for (int i = first; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", flag);
                opt.ok = false;
                return "";
            }
            return argv[++i];
        };
        // Strict numeric flag values (util/parse.hh): "--seed foo"
        // and "--threads 4x" are hard usage errors naming the text,
        // never a silent 0 or a silent truncation to 4.
        auto nextU64 = [&](const char *flag, uint64_t *out) {
            std::string raw = next(flag);
            if (!opt.ok)
                return;
            std::string why;
            if (!parseU64(raw, out, &why)) {
                std::fprintf(stderr, "%s: %s (got '%s')\n", flag,
                             why.c_str(), raw.c_str());
                opt.ok = false;
            }
        };
        auto nextSize = [&](const char *flag, size_t *out) {
            uint64_t v = 0;
            nextU64(flag, &v);
            if (opt.ok)
                *out = size_t(v);
        };
        auto nextF64 = [&](const char *flag, double *out) {
            std::string raw = next(flag);
            if (!opt.ok)
                return;
            std::string why;
            if (!parseF64(raw, out, &why)) {
                std::fprintf(stderr, "%s: %s (got '%s')\n", flag,
                             why.c_str(), raw.c_str());
                opt.ok = false;
            }
        };
        if (arg == "--out") {
            opt.out = next("--out");
            opt.outSet = true;
        } else if (arg == "--from-pool") {
            opt.fromPool = next("--from-pool");
        } else if (arg == "--no-pools") {
            opt.noPools = true;
        } else if (arg == "--outdir") {
            opt.outdir = next("--outdir");
        } else if (arg == "--scheme") {
            bool ok = true;
            opt.scheme =
                layoutSchemeFromName(next("--scheme").c_str(), &ok);
            if (!ok) {
                std::fprintf(stderr, "unknown scheme\n");
                opt.ok = false;
            }
        } else if (arg == "--error-rate") {
            nextF64("--error-rate", &opt.errorRate);
            opt.errorRateSet = true;
        } else if (arg == "--ins-rate" || arg == "--del-rate" ||
                   arg == "--sub-rate") {
            double *rate = arg == "--ins-rate"
                ? &opt.insRate
                : arg == "--del-rate" ? &opt.delRate : &opt.subRate;
            nextF64(arg.c_str(), rate);
            opt.ratesSet = true;
        } else if (arg == "--gamma-mean") {
            nextF64("--gamma-mean", &opt.gammaMean);
            opt.gammaSet = true;
        } else if (arg == "--gamma-shape") {
            nextF64("--gamma-shape", &opt.gammaShape);
            opt.gammaSet = true;
        } else if (arg == "--scenario") {
            opt.scenario = next("--scenario");
        } else if (arg == "--trials") {
            nextSize("--trials", &opt.trials);
            // At least one trial; bound the count so typos fail fast
            // instead of running for days (10M trials is already a
            // multi-hour soak).
            const size_t max_trials = 10000000;
            if (opt.ok && (opt.trials == 0 || opt.trials > max_trials)) {
                std::fprintf(stderr,
                             "--trials must be in [1, %zu] (got %zu)\n",
                             max_trials, opt.trials);
                opt.ok = false;
            }
        } else if (arg == "--seed") {
            nextU64("--seed", &opt.seed);
        } else if (arg == "--json") {
            opt.jsonPath = next("--json");
        } else if (arg == "--csv") {
            opt.csvPath = next("--csv");
        } else if (arg == "--timing") {
            opt.timing = true;
        } else if (arg == "--list") {
            opt.list = true;
        } else if (arg == "--coverage") {
            nextSize("--coverage", &opt.coverage);
            opt.coverageSet = true;
        } else if (arg == "--threads") {
            nextSize("--threads", &opt.threads);
        } else if (arg == "--packed-pools") {
            opt.packedPools = true;
        } else if (arg == "--cluster") {
            opt.cluster = true;
        } else if (arg == "--cluster-qgram") {
            nextSize("--cluster-qgram", &opt.clusterQgram);
            opt.clusterKnobsSet = true;
        } else if (arg == "--cluster-maxdist") {
            nextF64("--cluster-maxdist", &opt.clusterMaxDist);
            opt.clusterKnobsSet = true;
        } else if (arg == "--cluster-memory-mb") {
            nextSize("--cluster-memory-mb", &opt.clusterMemoryMb);
            opt.clusterKnobsSet = true;
        } else if (arg == "--cluster-spill-dir") {
            opt.clusterSpillDir = next("--cluster-spill-dir");
            opt.clusterKnobsSet = true;
        } else if (arg == "--age") {
            nextSize("--age", &opt.ageEpochs);
        } else if (arg == "--age-loss") {
            nextF64("--age-loss", &opt.aging.strandLossRate);
            opt.agingSet = true;
        } else if (arg == "--age-sub") {
            nextF64("--age-sub", &opt.aging.substitutionRate);
            opt.agingSet = true;
        } else if (arg == "--min-reads") {
            nextSize("--min-reads", &opt.scrub.minReads);
        } else if (arg == "--min-agreement") {
            nextF64("--min-agreement", &opt.scrub.minAgreement);
        } else if (arg == "--repair-all") {
            opt.scrub.repairAll = true;
        } else if (arg == "--port") {
            nextU64("--port", &opt.port);
            if (opt.ok && opt.port > 65535) {
                std::fprintf(stderr,
                             "--port must be in [0, 65535] (got %llu)\n",
                             static_cast<unsigned long long>(opt.port));
                opt.ok = false;
            }
        } else if (arg == "--root") {
            opt.root = next("--root");
        } else if (arg == "--quota") {
            nextU64("--quota", &opt.quotaBytes);
        } else if (arg == "--port-file") {
            opt.portFile = next("--port-file");
        } else if (arg == "--connect") {
            nextU64("--connect", &opt.connectPort);
            if (opt.ok &&
                (opt.connectPort == 0 || opt.connectPort > 65535)) {
                std::fprintf(
                    stderr,
                    "--connect must be in [1, 65535] (got %llu)\n",
                    static_cast<unsigned long long>(opt.connectPort));
                opt.ok = false;
            }
        } else if (arg == "--tenant") {
            opt.tenant = next("--tenant");
        } else if (arg == "--name") {
            opt.objName = next("--name");
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
            opt.ok = false;
        } else {
            opt.inputs.push_back(arg);
        }
    }
    return opt;
}

std::vector<uint8_t>
readFile(const std::string &path, bool *ok)
{
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        *ok = false;
        return {};
    }
    std::vector<uint8_t> data(
        (std::istreambuf_iterator<char>(f)),
        std::istreambuf_iterator<char>());
    return data;
}

std::string
baseName(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/**
 * The clustering knobs as the API sees them; validated by the
 * builder whenever any knob was given, --cluster or not, so a typo'd
 * qgram never passes silently.
 */
api::ClusterOptions
clusterOptionsFor(const CliOptions &opt)
{
    api::ClusterOptions cluster;
    cluster.qgram(opt.clusterQgram)
        .maxDistanceFrac(opt.clusterMaxDist)
        .threads(opt.threads)
        .memoryBudgetMb(opt.clusterMemoryMb)
        .spillDir(opt.clusterSpillDir);
    return cluster;
}

/** Read the inputs into the store; false (with message) on failure. */
bool
putInputs(api::Store &store, const CliOptions &opt, int *exit_code)
{
    if (opt.inputs.empty()) {
        std::fprintf(stderr, "no input files\n");
        *exit_code = kExitUsage;
        return false;
    }
    for (const auto &path : opt.inputs) {
        bool read_ok = true;
        auto data = readFile(path, &read_ok);
        if (!read_ok) {
            *exit_code = kExitRuntime;
            return false;
        }
        api::Status status = store.put(baseName(path), std::move(data));
        if (!status.ok()) {
            printStatus(status);
            *exit_code = statusExit(status);
            return false;
        }
    }
    *exit_code = kExitOk;
    return true;
}

/**
 * Build the channel/coverage/cluster options from the flags. All
 * validation — rates, totals, gamma, coverage, cluster knobs —
 * happens at Store::open, in ChannelOptions::validate() and the
 * rules it runs.
 */
api::ChannelOptions
channelOptionsFor(const CliOptions &opt)
{
    api::ChannelOptions chan;
    if (opt.errorRateSet || !opt.ratesSet)
        chan.errorRate(opt.errorRate);
    if (opt.ratesSet)
        chan.rates(opt.insRate, opt.delRate, opt.subRate);
    chan.coverage(opt.coverage);
    if (opt.gammaSet)
        chan.gammaCoverage(opt.gammaMean, opt.gammaShape);
    if (opt.cluster)
        chan.cluster(clusterOptionsFor(opt));
    if (opt.agingSet)
        chan.aging(opt.aging);
    chan.drawSeed(opt.seed);
    return chan;
}

int
cmdEncode(const CliOptions &opt)
{
    api::Result<api::Store> store = api::Store::open(
        api::StoreOptions().autoGeometry(true).layout(opt.scheme));
    if (!store.ok()) {
        printStatus(store.status());
        return statusExit(store.status());
    }
    int exit_code = kExitOk;
    if (!putInputs(*store, opt, &exit_code))
        return exit_code;

    api::Result<api::EncodedArtifact> artifact =
        store->submit(api::EncodeJob{}).get();
    if (!artifact.ok()) {
        printStatus(artifact.status());
        return statusExit(artifact.status());
    }
    std::ofstream out(opt.out);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
        return kExitRuntime;
    }
    out << artifact->text();
    std::printf("wrote %zu strands (%zu bases each) to %s\n",
                artifact->strands.size(),
                artifact->config.strandLen(), opt.out.c_str());
    return kExitOk;
}

/**
 * Write one recovered object under @p outdir. Object names come from
 * untrusted bytes (a unit artifact or pool file); FileBundle's
 * parsers already reject names that are not a single plain path
 * component, but the write loop re-checks so --outdir can never be
 * escaped (zip-slip) even if a future format revision relaxes the
 * name rules. @p path returns the written path for reporting.
 */
bool
writeRecovered(const std::string &outdir, const std::string &name,
               const std::vector<uint8_t> &data, std::string *path)
{
    if (const char *err = FileBundle::checkName(name)) {
        std::fprintf(stderr, "refusing to write object '%s': %s\n",
                     name.c_str(), err);
        return false;
    }
    *path = outdir + "/" + name;
    std::ofstream out(*path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(data.data()),
              std::streamsize(data.size()));
    out.flush();
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path->c_str());
        return false;
    }
    return true;
}

int
cmdDecode(const CliOptions &opt)
{
    if (opt.inputs.size() != 1) {
        std::fprintf(stderr, "decode needs exactly one unit file\n");
        return kExitUsage;
    }
    std::ifstream in(opt.inputs[0]);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n",
                     opt.inputs[0].c_str());
        return kExitRuntime;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();

    // The unit header is self-describing; the store only hosts the
    // job (and its thread knob).
    api::Result<api::Store> store = api::Store::open(
        api::StoreOptions().threads(opt.threads));
    if (!store.ok()) {
        printStatus(store.status());
        return statusExit(store.status());
    }
    api::DecodeJob job;
    job.text = buffer.str();
    api::Result<api::DecodedObjects> decoded =
        store->submit(job).get();
    if (!decoded.ok()) {
        printStatus(decoded.status());
        return statusExit(decoded.status());
    }
    for (const auto &file : decoded->files) {
        std::string path;
        if (!writeRecovered(opt.outdir, file.name, file.data, &path))
            return kExitRuntime;
        std::printf("recovered %s (%zu bytes)%s\n", path.c_str(),
                    file.data.size(),
                    decoded->exact ? "" : " [ECC reported failures]");
    }
    return decoded->exact ? kExitOk : kExitThreshold;
}

/**
 * Validation of every channel/coverage/cluster/scrub flag by its rule,
 * regardless of subcommand — the parse-time checks this replaces
 * rejected a bad --ins-rate or --cluster-qgram even on `encode`, and
 * a typo'd knob should never pass silently.
 */
int
validateFlags(const CliOptions &opt)
{
    api::Status status = channelOptionsFor(opt).validate();
    if (!status.ok()) {
        printStatus(status);
        return kExitUsage;
    }
    if (opt.clusterKnobsSet && !opt.cluster) {
        status = clusterOptionsFor(opt).validate();
        if (!status.ok()) {
            printStatus(status);
            return kExitUsage;
        }
    }
    // Up front, so `scrub --age` never decays a pool it cannot scrub.
    if (const char *err = opt.scrub.check()) {
        std::fprintf(stderr, "%s\n", err);
        return kExitUsage;
    }
    return kExitOk;
}

/** The runtime (not durable) knobs openFile takes from the flags. */
api::OpenOptions
openOptionsFor(const CliOptions &opt,
               api::OpenMode mode = api::OpenMode::ReadOnly)
{
    api::OpenOptions open_opt;
    open_opt.mode = mode;
    open_opt.threads = opt.threads;
    open_opt.packedReadPools = opt.packedPools;
    return open_opt;
}

/**
 * Reopen a packed store for serving, parsing the file exactly once:
 * the parsed contents supply both the coverage default (when the
 * user gave no --coverage/--gamma, adopt the file's own saved pool
 * depth instead of tripping the depth gate on the CLI default) and,
 * via Store::openContents, the opened store itself. Read-only unless
 * the caller (scrub: it mutates the pool) asks otherwise.
 */
api::Result<api::Store>
openPoolStore(const CliOptions &opt, const std::string &path,
              api::OpenMode mode = api::OpenMode::ReadOnly)
{
    api::Result<api::PoolFileContents> contents =
        api::readPoolFile(path);
    if (!contents.ok())
        return contents.status();
    api::ChannelOptions chan = channelOptionsFor(opt);
    if (!opt.coverageSet && !opt.gammaSet && contents->hasPools)
        chan.coverage(contents->poolMaxCoverage);
    return api::Store::openContents(std::move(*contents), chan,
                                    openOptionsFor(opt, mode), path);
}

/** Emit @p json to --json FILE, or stdout when no path was given. */
int
emitJson(const std::string &json, const std::string &path)
{
    if (path.empty()) {
        std::fputs(json.c_str(), stdout);
        return kExitOk;
    }
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return kExitRuntime;
    }
    out << json;
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return kExitOk;
}

int
cmdSimulate(const CliOptions &opt)
{
    api::ChannelOptions chan = channelOptionsFor(opt);
    api::StoreOptions store_opt;
    store_opt.autoGeometry(true)
        .layout(opt.scheme)
        .threads(opt.threads)
        .packedReadPools(opt.packedPools)
        .unitSeed(20220618);
    // --from-pool reopens a packed store (read-only: simulate never
    // mutates it) instead of encoding fresh inputs; the file supplies
    // the geometry, scheme, objects, and default coverage.
    api::Result<api::Store> store = opt.fromPool.empty()
        ? api::Store::open(store_opt, chan)
        : openPoolStore(opt, opt.fromPool);
    if (!store.ok()) {
        printStatus(store.status());
        return statusExit(store.status());
    }
    int exit_code = kExitOk;
    if (opt.fromPool.empty() && !putInputs(*store, opt, &exit_code))
        return exit_code;

    api::Result<api::Retrieval> retrieval = store->retrieveAll();
    if (!retrieval.ok()) {
        printStatus(retrieval.status());
        return statusExit(retrieval.status());
    }
    if (retrieval->clustered) {
        std::printf("clustering: %zu clusters "
                    "(precision=%.4f recall=%.4f)\n",
                    retrieval->clustersFound, retrieval->precision,
                    retrieval->recall);
    }
    const bool gamma = chan.hasGamma();
    std::printf("scheme=%s error_rate=%.1f%% coverage=%zu%s: "
                "exact=%s, %zu errors corrected, %zu molecules lost, "
                "%zu codewords failed\n",
                layoutSchemeName(store->options().layout()),
                chan.channelProfile().base.total() * 100,
                retrieval->coverage, gamma ? " (gamma mean)" : "",
                retrieval->exact ? "yes" : "no",
                retrieval->correctedErrors, retrieval->erasedColumns,
                retrieval->failedCodewords);
    return retrieval->exact ? kExitOk : kExitThreshold;
}

int
cmdPack(const CliOptions &opt)
{
    api::ChannelOptions chan = channelOptionsFor(opt);
    api::StoreOptions store_opt;
    store_opt.autoGeometry(true)
        .layout(opt.scheme)
        .threads(opt.threads)
        .packedReadPools(opt.packedPools)
        .unitSeed(20220618);
    api::Result<api::Store> store = api::Store::open(store_opt, chan);
    if (!store.ok()) {
        printStatus(store.status());
        return statusExit(store.status());
    }
    int exit_code = kExitOk;
    if (!putInputs(*store, opt, &exit_code))
        return exit_code;

    const std::string out = opt.outSet ? opt.out : "store.dnapool";
    api::Status status = store->save(out, !opt.noPools);
    if (!status.ok()) {
        printStatus(status);
        return statusExit(status);
    }
    std::printf("packed %zu objects (%zu bytes) into %s%s\n",
                store->objectCount(), store->totalBytes(),
                out.c_str(),
                opt.noPools ? " (unit only, no read pools)" : "");
    return kExitOk;
}

int
cmdUnpack(const CliOptions &opt)
{
    if (opt.inputs.size() != 1) {
        std::fprintf(stderr, "unpack needs exactly one pool file\n");
        return kExitUsage;
    }
    api::Result<api::Store> store =
        openPoolStore(opt, opt.inputs[0]);
    if (!store.ok()) {
        printStatus(store.status());
        return statusExit(store.status());
    }
    api::Result<api::Retrieval> retrieval = store->retrieveAll();
    if (!retrieval.ok()) {
        printStatus(retrieval.status());
        return statusExit(retrieval.status());
    }
    for (const auto &file : retrieval->objects.files()) {
        std::string path;
        if (!writeRecovered(opt.outdir, file.name, file.data, &path))
            return kExitRuntime;
        std::printf("recovered %s (%zu bytes)%s\n", path.c_str(),
                    file.data.size(),
                    retrieval->exact ? ""
                                     : " [ECC reported failures]");
    }
    return retrieval->exact ? kExitOk : kExitThreshold;
}

int
cmdSweep(const CliOptions &opt)
{
    if (opt.list) {
        for (const auto &s : allScenarios())
            std::printf("%-18s min_success=%.2f  %s\n", s.name.c_str(),
                        s.minSuccessRate, s.description.c_str());
        return kExitOk;
    }
    std::vector<Scenario> grid;
    if (opt.scenario == "all") {
        grid = allScenarios();
    } else {
        const Scenario *s = findScenario(opt.scenario);
        if (s == nullptr) {
            std::fprintf(stderr, "unknown scenario '%s'; available:",
                         opt.scenario.c_str());
            for (const auto &known : allScenarios())
                std::fprintf(stderr, " %s", known.name.c_str());
            std::fprintf(stderr, " (or 'all')\n");
            return kExitUsage;
        }
        grid.push_back(*s);
    }

    // --from-pool: sweep the hostile grid over a packed store's real
    // objects under its real geometry instead of the synthetic
    // payload. The file is parsed once; every scenario adopts its
    // config/scheme so the override always fits the unit.
    if (!opt.fromPool.empty()) {
        api::Result<api::PoolFileContents> file =
            api::readPoolFile(opt.fromPool);
        if (!file.ok()) {
            printStatus(file.status());
            return statusExit(file.status());
        }
        for (auto &scenario : grid) {
            scenario.config = file->config;
            scenario.scheme = file->scheme;
            scenario.payloadOverride = file->manifest;
            scenario.hasPayloadOverride = true;
        }
    }

    SweepOptions sweep_opt;
    sweep_opt.trials = opt.trials;
    sweep_opt.threads = opt.threads;
    sweep_opt.seed = opt.seed;
    SweepRunner runner(sweep_opt);
    std::vector<ScenarioReport> reports = runner.runAll(grid);

    std::string json = reportsToJson(reports, sweep_opt, opt.timing);
    if (int code = emitJson(json, opt.jsonPath))
        return code;
    if (!opt.csvPath.empty()) {
        std::ofstream out(opt.csvPath);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         opt.csvPath.c_str());
            return kExitRuntime;
        }
        out << reportsToCsv(reports, opt.timing);
        std::fprintf(stderr, "wrote %s\n", opt.csvPath.c_str());
    }

    // Per-scenario pass/fail summary on stderr so piping the JSON
    // stays clean; exit 3 when any scenario misses its threshold.
    bool all_passed = true;
    for (const auto &r : reports) {
        // The enforced bound is quantized to whole trials (see
        // ScenarioReport::passed); print the actual required count so
        // the line never contradicts its own verdict at small N.
        size_t required =
            size_t(std::floor(r.minSuccessRate * double(r.trials)));
        std::fprintf(stderr,
                     "%-18s %zu/%zu trials exact (%.1f%%, bound "
                     "%.0f%% = need >= %zu) %s\n",
                     r.scenario.c_str(), r.successes, r.trials,
                     r.successRate * 100.0, r.minSuccessRate * 100.0,
                     required, r.passed ? "ok" : "FAIL");
        all_passed = all_passed && r.passed;
    }
    return all_passed ? kExitOk : kExitThreshold;
}

int
cmdHealth(const CliOptions &opt)
{
    if (opt.inputs.size() != 1) {
        std::fprintf(stderr, "health needs exactly one pool file\n");
        return kExitUsage;
    }
    // Health is a pure probe: the read-only open is enough, so any
    // number of processes can inspect one file concurrently.
    api::Result<api::Store> store = openPoolStore(opt, opt.inputs[0]);
    if (!store.ok()) {
        printStatus(store.status());
        return statusExit(store.status());
    }
    api::Result<api::HealthReport> health = store->health();
    if (!health.ok()) {
        printStatus(health.status());
        return statusExit(health.status());
    }
    if (int code = emitJson(health->toJson(), opt.jsonPath))
        return code;
    // Summary on stderr so piped JSON stays clean.
    std::fprintf(stderr,
                 "%zu clusters, %zu live reads, %zu empty, min margin "
                 "%d: %s\n",
                 health->clusters, health->liveReads,
                 health->emptyClusters, health->minMargin,
                 health->exact ? "decodes exactly" : "DEGRADED");
    return health->exact ? kExitOk : kExitThreshold;
}

int
cmdScrub(const CliOptions &opt)
{
    if (opt.inputs.size() != 1) {
        std::fprintf(stderr, "scrub needs exactly one pool file\n");
        return kExitUsage;
    }
    api::Result<api::Store> store = openPoolStore(
        opt, opt.inputs[0], api::OpenMode::ReadWrite);
    if (!store.ok()) {
        printStatus(store.status());
        return statusExit(store.status());
    }
    // --age first: the optional decay injection, so one invocation can
    // exercise a full age-then-repair cycle. Store::age rejects the
    // call (FailedPrecondition) unless --age-loss/--age-sub configured
    // an aging profile.
    if (opt.ageEpochs > 0) {
        api::Result<size_t> lost = store->age(opt.ageEpochs);
        if (!lost.ok()) {
            printStatus(lost.status());
            return statusExit(lost.status());
        }
        std::fprintf(stderr, "aged %zu epochs: %zu reads lost\n",
                     opt.ageEpochs, *lost);
    }
    api::Result<api::ScrubReport> report = store->scrub(opt.scrub);
    if (!report.ok()) {
        // Unavailable (selected clusters exist but the probe decode
        // could not recover every codeword) maps to the runtime exit:
        // the pool needs deeper reads, not different flags.
        printStatus(report.status());
        return statusExit(report.status());
    }
    if (int code = emitJson(report->toJson(), opt.jsonPath))
        return code;
    std::fprintf(stderr,
                 "scanned %zu clusters, %zu low-margin, repaired %zu "
                 "(%zu reads rewritten)\n",
                 report->clustersScanned, report->lowMargin,
                 report->repaired, report->readsRewritten);
    // Persist the repaired pool: over the input in place, or to --out.
    const std::string out = opt.outSet ? opt.out : opt.inputs[0];
    api::Status saved = store->save(out, true);
    if (!saved.ok()) {
        printStatus(saved);
        return statusExit(saved);
    }
    std::fprintf(stderr, "saved repaired store to %s\n", out.c_str());
    return kExitOk;
}

/** SIGTERM/SIGINT request graceful drain; the serve loop polls it. */
volatile std::sig_atomic_t g_stopRequested = 0;

void
handleStopSignal(int)
{
    g_stopRequested = 1;
}

int
cmdServe(const CliOptions &opt)
{
    if (!opt.inputs.empty()) {
        std::fprintf(stderr, "serve takes no positional arguments\n");
        return kExitUsage;
    }
    if (opt.root.empty()) {
        std::fprintf(stderr,
                     "serve needs --root DIR (tenant pool directory)\n");
        return kExitUsage;
    }
    daemon::ServerOptions server_opt;
    server_opt.port = uint16_t(opt.port);
    server_opt.tenants.root = opt.root;
    server_opt.tenants.quotaBytes = opt.quotaBytes;
    server_opt.tenants.threads = opt.threads;
    server_opt.tenants.packedReadPools = opt.packedPools;
    if (opt.errorRateSet)
        server_opt.tenants.errorRate = opt.errorRate;
    if (opt.coverageSet)
        server_opt.tenants.coverage = opt.coverage;
    server_opt.tenants.unitSeed = opt.seed;

    daemon::Server server(server_opt);
    api::Status status = server.start();
    if (!status.ok()) {
        printStatus(status);
        return kExitRuntime;
    }
    std::printf("listening on 127.0.0.1:%u\n", unsigned(server.port()));
    std::fflush(stdout);
    if (!opt.portFile.empty()) {
        // Atomic so a reader never sees a half-written port.
        const std::string port = std::to_string(server.port()) + "\n";
        api::Status written = api::replaceFileAtomically(
            opt.portFile, std::vector<uint8_t>(port.begin(), port.end()));
        if (!written.ok()) {
            printStatus(written);
            server.drain();
            return kExitRuntime;
        }
    }

    std::signal(SIGTERM, handleStopSignal);
    std::signal(SIGINT, handleStopSignal);
    while (g_stopRequested == 0)
        ::usleep(100 * 1000);

    std::fprintf(stderr, "draining: finishing in-flight requests and "
                         "saving dirty pools\n");
    api::Status drained = server.drain();
    if (!drained.ok()) {
        printStatus(drained);
        return kExitRuntime;
    }
    std::fprintf(stderr, "drained cleanly (%llu requests served)\n",
                 static_cast<unsigned long long>(
                     server.requestsServed()));
    return kExitOk;
}

int
cmdClient(const CliOptions &opt)
{
    if (opt.inputs.empty()) {
        std::fprintf(stderr,
                     "client needs an operation: ping | put | get | "
                     "list | health | scrub | trial | save\n");
        return kExitUsage;
    }
    if (opt.connectPort == 0) {
        std::fprintf(stderr, "client needs --connect PORT\n");
        return kExitUsage;
    }
    daemon::Client client;
    api::Status status = client.connect(uint16_t(opt.connectPort));
    if (!status.ok()) {
        printStatus(status);
        return kExitRuntime;
    }
    const std::string &op = opt.inputs[0];
    if (op == "ping") {
        status = client.ping();
        if (!status.ok()) {
            printStatus(status);
            return statusExit(status);
        }
        std::printf("pong\n");
        return kExitOk;
    }
    if (op == "put") {
        if (opt.inputs.size() != 2) {
            std::fprintf(stderr, "client put needs one file\n");
            return kExitUsage;
        }
        bool read_ok = true;
        std::vector<uint8_t> data = readFile(opt.inputs[1], &read_ok);
        if (!read_ok)
            return kExitRuntime;
        const std::string name = opt.objName.empty()
            ? baseName(opt.inputs[1])
            : opt.objName;
        const size_t bytes = data.size();
        status = client.put(opt.tenant, name, data);
        if (!status.ok()) {
            printStatus(status);
            return statusExit(status);
        }
        std::printf("stored %s (%zu bytes) in tenant %s\n",
                    name.c_str(), bytes, opt.tenant.c_str());
        return kExitOk;
    }
    if (op == "get") {
        if (opt.inputs.size() != 2) {
            std::fprintf(stderr, "client get needs one object name\n");
            return kExitUsage;
        }
        api::Result<std::vector<uint8_t>> data =
            client.get(opt.tenant, opt.inputs[1]);
        if (!data.ok()) {
            printStatus(data.status());
            return statusExit(data.status());
        }
        if (opt.outSet) {
            std::ofstream out(opt.out, std::ios::binary);
            out.write(reinterpret_cast<const char *>(data->data()),
                      std::streamsize(data->size()));
            out.flush();
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n",
                             opt.out.c_str());
                return kExitRuntime;
            }
            std::fprintf(stderr, "wrote %s (%zu bytes)\n",
                         opt.out.c_str(), data->size());
        } else {
            std::fwrite(data->data(), 1, data->size(), stdout);
        }
        return kExitOk;
    }
    if (op == "list") {
        api::Result<std::vector<api::ObjectInfo>> listing =
            client.list(opt.tenant);
        if (!listing.ok()) {
            printStatus(listing.status());
            return statusExit(listing.status());
        }
        for (const api::ObjectInfo &info : *listing)
            std::printf("%s\t%zu\n", info.name.c_str(), info.bytes);
        return kExitOk;
    }
    if (op == "health") {
        api::Result<std::string> json = client.health(opt.tenant);
        if (!json.ok()) {
            printStatus(json.status());
            return statusExit(json.status());
        }
        return emitJson(*json, opt.jsonPath);
    }
    if (op == "scrub") {
        api::Result<std::string> json = client.scrub(opt.tenant, opt.scrub);
        if (!json.ok()) {
            printStatus(json.status());
            return statusExit(json.status());
        }
        return emitJson(*json, opt.jsonPath);
    }
    if (op == "trial") {
        api::Result<std::vector<uint8_t>> flags = client.trial(
            opt.tenant, uint32_t(opt.trials), opt.seed);
        if (!flags.ok()) {
            printStatus(flags.status());
            return statusExit(flags.status());
        }
        size_t successes = 0;
        for (uint8_t f : *flags)
            successes += f != 0 ? 1 : 0;
        std::printf("%zu/%zu trials exact\n", successes,
                    flags->size());
        return successes == flags->size() ? kExitOk : kExitThreshold;
    }
    if (op == "save") {
        status = client.save(opt.tenant);
        if (!status.ok()) {
            printStatus(status);
            return statusExit(status);
        }
        std::printf("saved tenant %s\n", opt.tenant.c_str());
        return kExitOk;
    }
    std::fprintf(stderr, "unknown client operation '%s'\n",
                 op.c_str());
    return kExitUsage;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  dnastore encode <files...> [--out unit.dna] "
        "[--scheme gini|baseline|dnamapper]\n"
        "  dnastore decode <unit.dna> [--outdir DIR] [--threads T]\n"
        "  dnastore simulate <files...> [--scheme S] "
        "[--error-rate P] [--coverage N] [--threads T] "
        "[--packed-pools]\n"
        "                [--ins-rate P] [--del-rate P] [--sub-rate P]\n"
        "                [--gamma-mean M --gamma-shape K]\n"
        "                [--cluster] [--cluster-qgram Q] "
        "[--cluster-maxdist F]\n"
        "                [--cluster-memory-mb N] "
        "[--cluster-spill-dir D]\n"
        "    (--threads 0 uses all hardware threads; --packed-pools\n"
        "     stores reads 2-bit packed; --cluster regroups reads\n"
        "     with the real clusterer before decoding; results are\n"
        "     identical for every thread count and storage mode;\n"
        "     --cluster-memory-mb bounds read buffering through the\n"
        "     streaming engine, spilling past the budget to the\n"
        "     checksummed segments under --cluster-spill-dir)\n"
        "  dnastore sweep [--scenario NAME|all] [--trials N] "
        "[--threads T] [--seed S]\n"
        "                [--json FILE] [--csv FILE] [--timing] "
        "[--list] [--from-pool FILE]\n"
        "    (Monte-Carlo reliability sweep over the Scenario Lab's\n"
        "     hostile channel profiles; JSON goes to stdout unless\n"
        "     --json is given and is byte-identical for every\n"
        "     --threads value; --timing adds non-deterministic wall\n"
        "     times; --from-pool sweeps a packed store's objects\n"
        "     under its saved geometry)\n"
        "  dnastore pack <files...> [--out store.dnapool] "
        "[--scheme S] [--no-pools]\n"
        "                [channel flags as in simulate]\n"
        "    (encode files and save the unit — synthesized read\n"
        "     pools included unless --no-pools — as a versioned,\n"
        "     checksummed .dnapool file; every section is CRC-\n"
        "     guarded, so later corruption is detected and named)\n"
        "  dnastore unpack <store.dnapool> [--outdir DIR] "
        "[--threads T] [--coverage N]\n"
        "    (reopen a pool file read-only — any number of processes\n"
        "     can serve one file — retrieve every object through the\n"
        "     decode path, and write the recovered files; without\n"
        "     --coverage the file's saved pool depth is used)\n"
        "  dnastore simulate --from-pool FILE [channel flags]\n"
        "    (run the retrieval report against a packed store\n"
        "     instead of fresh inputs)\n"
        "  dnastore health <store.dnapool> [--json FILE] "
        "[--threads T]\n"
        "    (probe-decode the pool and report per-cluster and\n"
        "     per-codeword health — live reads, consensus agreement,\n"
        "     RS errors vs erasures, remaining correction margin —\n"
        "     as deterministic JSON; exit 3 when the unit no longer\n"
        "     decodes exactly)\n"
        "  dnastore scrub <store.dnapool> [--out FILE] [--json FILE]\n"
        "                [--min-reads N] [--min-agreement F] "
        "[--repair-all]\n"
        "                [--age E --age-loss P --age-sub P]\n"
        "    (re-decode low-margin clusters, repair them via RS\n"
        "     errors-and-erasures, rewrite the repaired strands at\n"
        "     full depth, and save the healed pool — over the input\n"
        "     unless --out names another file; --age first applies E\n"
        "     epochs of decay with per-epoch strand-loss/substitution\n"
        "     rates, so one invocation exercises the full\n"
        "     age-then-repair cycle)\n"
        "  dnastore serve --root DIR [--port P] [--port-file FILE]\n"
        "                [--quota BYTES] [--threads T] "
        "[--packed-pools]\n"
        "                [--error-rate P] [--coverage N] [--seed S]\n"
        "    (run dnastored: a concurrent multi-tenant storage\n"
        "     daemon on 127.0.0.1; each tenant is its own\n"
        "     <root>/<tenant>.dnapool with an optional byte quota;\n"
        "     --port 0 picks an ephemeral port, printed on stdout\n"
        "     and written to --port-file; SIGTERM/SIGINT drain:\n"
        "     in-flight requests finish and dirty pools are saved\n"
        "     atomically before exit)\n"
        "  dnastore client <op> [ARG] --connect PORT "
        "[--tenant T] [flags]\n"
        "    ops: ping | put FILE [--name N] | get NAME [--out F]\n"
        "         | list | health [--json F] | scrub [scrub flags]\n"
        "         | trial [--trials N --seed S] | save\n"
        "    (talk to a running dnastored; statuses cross the wire\n"
        "     unchanged, so exit codes match the local subcommands)\n"
        "  dnastore --version\n"
        "\n"
        "exit codes:\n"
        "  0  success (exact recovery / all scenarios passed)\n"
        "  1  runtime failure (I/O error, unrecoverable unit)\n"
        "  2  usage or validation error (rejected parameter)\n"
        "  3  quality threshold miss (inexact recovery, scenario\n"
        "     below its reliability bound)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return kExitUsage;
    }
    std::string cmd = argv[1];
    if (cmd == "--version" || cmd == "version") {
        std::printf("dnastore %s\n", api::version());
        return kExitOk;
    }
    CliOptions opt = parseArgs(argc, argv, 2);
    if (!opt.ok) {
        usage();
        return kExitUsage;
    }
    if (int code = validateFlags(opt))
        return code;
    try {
        if (cmd == "encode")
            return cmdEncode(opt);
        if (cmd == "decode")
            return cmdDecode(opt);
        if (cmd == "simulate")
            return cmdSimulate(opt);
        if (cmd == "sweep")
            return cmdSweep(opt);
        if (cmd == "pack")
            return cmdPack(opt);
        if (cmd == "unpack")
            return cmdUnpack(opt);
        if (cmd == "health")
            return cmdHealth(opt);
        if (cmd == "scrub")
            return cmdScrub(opt);
        if (cmd == "serve")
            return cmdServe(opt);
        if (cmd == "client")
            return cmdClient(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return kExitRuntime;
    }
    usage();
    return kExitUsage;
}
