/**
 * @file
 * Umbrella header of the public `dnastore::api` surface.
 *
 * `#include "api/api.hh"` pulls in the whole façade: Status/Result
 * (status.hh), the builder-validated option types (options.hh), and
 * the Store with its unit-text and trial-job calls (store.hh). Each
 * header is also self-sufficient on its own — CI compiles every
 * header under `src/api/` standalone to keep it that way.
 */

#ifndef DNASTORE_API_API_HH
#define DNASTORE_API_API_HH

#include "api/health.hh"
#include "api/options.hh"
#include "api/pool_file.hh"
#include "api/status.hh"
#include "api/store.hh"

#endif // DNASTORE_API_API_HH
