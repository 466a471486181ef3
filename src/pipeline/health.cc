#include "pipeline/health.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace dnastore {

namespace {

/**
 * %.12g with the decimal separator normalized to '.' — snprintf
 * honors LC_NUMERIC, and the byte-identity contract of these
 * renderings must not depend on the host program's locale.
 */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    std::string out = buf;
    for (auto &c : out) {
        if (c == ',')
            c = '.';
    }
    return out;
}

const char *
fmtBool(bool b)
{
    return b ? "true" : "false";
}

} // namespace

std::string
HealthReport::toJson(bool detail) const
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"clusters\": " << clusters << ",\n";
    out << "  \"live_reads\": " << liveReads << ",\n";
    out << "  \"pool_coverage\": " << poolCoverage << ",\n";
    out << "  \"empty_clusters\": " << emptyClusters << ",\n";
    out << "  \"index_faults\": " << indexFaults << ",\n";
    out << "  \"erased_columns\": " << erasedColumns << ",\n";
    out << "  \"failed_codewords\": " << failedCodewords << ",\n";
    out << "  \"aged_epochs\": " << agedEpochs << ",\n";
    out << "  \"exact\": " << fmtBool(exact) << ",\n";
    out << "  \"mean_agreement\": " << fmtDouble(meanAgreement) << ",\n";
    out << "  \"min_agreement\": " << fmtDouble(minAgreement) << ",\n";
    out << "  \"min_margin\": " << minMargin;
    if (detail) {
        out << ",\n  \"per_cluster\": [\n";
        for (size_t c = 0; c < perCluster.size(); ++c) {
            const ClusterHealthEntry &e = perCluster[c];
            out << "    {\"reads\": " << e.reads
                << ", \"index_ok\": " << fmtBool(e.indexOk)
                << ", \"claimed\": " << fmtBool(e.claimed)
                << ", \"column\": " << e.column
                << ", \"agreement\": " << fmtDouble(e.agreement) << "}"
                << (c + 1 < perCluster.size() ? "," : "") << "\n";
        }
        out << "  ],\n  \"per_codeword\": [\n";
        for (size_t j = 0; j < perCodeword.size(); ++j) {
            const CodewordHealthEntry &e = perCodeword[j];
            out << "    {\"ok\": " << fmtBool(e.ok)
                << ", \"errors_corrected\": " << e.errorsCorrected
                << ", \"erasures_corrected\": " << e.erasuresCorrected
                << ", \"margin\": " << e.margin << "}"
                << (j + 1 < perCodeword.size() ? "," : "") << "\n";
        }
        out << "  ]";
    }
    out << "\n}\n";
    return out.str();
}

const char *
ScrubOptions::check() const
{
    if (!std::isfinite(minAgreement))
        return "scrub min-agreement must be finite";
    return nullptr;
}

std::string
ScrubReport::toJson() const
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"clusters_scanned\": " << clustersScanned << ",\n";
    out << "  \"low_margin\": " << lowMargin << ",\n";
    out << "  \"repaired\": " << repaired << ",\n";
    out << "  \"unrepairable\": " << unrepairable << ",\n";
    out << "  \"failed_codewords\": " << failedCodewords << ",\n";
    out << "  \"reads_rewritten\": " << readsRewritten << ",\n";
    out << "  \"repairable\": " << fmtBool(repairable) << "\n";
    out << "}\n";
    return out.str();
}

} // namespace dnastore
