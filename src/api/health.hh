/**
 * @file
 * Pool health telemetry and scrub reporting for the `dnastore::api`
 * surface — the measure-and-repair half of the durability loop.
 *
 * The report types are one definition shared by the pipeline and the
 * api (pipeline/health.hh): the probe decode fills them and
 * Store::health() / Store::scrub() return them as they are, with no
 * api-side mirror to copy into. The names below keep them spelled
 * `api::HealthReport`, `api::ScrubOptions` and so on.
 *
 * Both report types render to JSON deterministically: fixed key
 * order, locale-independent number formatting, no timestamps —
 * byte-identical output for byte-identical state, at any thread
 * count.
 */

#ifndef DNASTORE_API_HEALTH_HH
#define DNASTORE_API_HEALTH_HH

#include "pipeline/health.hh"

namespace dnastore {
namespace api {

using dnastore::ClusterHealthEntry;
using dnastore::CodewordHealthEntry;
using dnastore::HealthReport;
using dnastore::ScrubOptions;
using dnastore::ScrubReport;

} // namespace api
} // namespace dnastore

#endif // DNASTORE_API_HEALTH_HH
