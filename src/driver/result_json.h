// Renders the driver's typed stage results into the deterministic JSON
// document harvest_sim writes. This is the only place driver JSON is built:
// stages return plain structs (src/driver/stage.h) and tests / CI tooling
// consume those structs or diff this rendering byte-for-byte.

#ifndef HARVEST_SRC_DRIVER_RESULT_JSON_H_
#define HARVEST_SRC_DRIVER_RESULT_JSON_H_

#include <string>

#include "src/driver/stage.h"

namespace harvest {

class JsonWriter;

// The full document, ScenarioResult::schema_version. Key order is fixed by
// the structs' declaration order; values use JsonWriter's %.12g formatting,
// so one (scenario, seed, scale) triple renders byte-identically within a
// build. No wall-clock telemetry is rendered: the output is compared with
// plain `cmp` against tests/golden/.
std::string RenderScenarioJson(const ScenarioResult& result);

// Individual renderers, exposed for tests that check one stage's section.
void WriteDatacenterResult(JsonWriter& json, const DatacenterResult& dc);

}  // namespace harvest

#endif  // HARVEST_SRC_DRIVER_RESULT_JSON_H_
