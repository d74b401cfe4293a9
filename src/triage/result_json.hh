/**
 * @file
 * JSON serialization of the simulator's run-facing structs —
 * MachineConfig, SimError, and the complete RunResult. Shared by
 * `.repro.json` capture (triage/repro), the supervised-campaign
 * worker protocol (a child process returns its RunResult over a pipe
 * as one JSON document), the fabric's result messages and campaign
 * reports, and the campaign journal (every completed cell's result is
 * a JSONL record).
 *
 * Each struct is a `Fields<>` table (triage/fields.hh) kept in
 * result_json.cc; these functions and the instantiations declared
 * below are its only entry points. RunResult's `counters` is the one
 * copy of each counter. Decoding is strict: a wrongly typed field is
 * an error that names its path, and keys this build does not know
 * are skipped.
 *
 * The RunResult round-trip is *lossless*: every counter, histogram
 * bucket, chaos event and metric reconstructs bit-identically, so a
 * report assembled from deserialized worker results is byte-identical
 * to the same report assembled from in-process runs.
 */

#ifndef EDGE_TRIAGE_RESULT_JSON_HH
#define EDGE_TRIAGE_RESULT_JSON_HH

#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "triage/fields.hh"

namespace edge::triage {

/** Canonical config JSON. Its compact bytes are part of the cell
 *  identity (super::cellHash): changing a field's name or order
 *  invalidates every journal. */
JsonValue configToJson(const core::MachineConfig &cfg);

/** Overlay `o` onto *cfg: absent keys keep their current value.
 *  False (with *err naming the field) on a wrongly typed value or an
 *  unknown enum name. */
bool configFromJson(const JsonValue &o, core::MachineConfig *cfg,
                    std::string *err);

/** Every config field and nested struct, in JSON emission order. */
std::vector<ConfigKey> configKeys();

/** The `--set key=value` override: `key` is a leaf JSON path of
 *  configKeys(), `value` a JSON literal or a bare enum name. */
bool applyConfigOverride(core::MachineConfig *cfg, const std::string &key,
                         const std::string &value, std::string *err);

/** Serialize a complete RunResult (all metrics, counters,
 *  histograms, and the chaos-event schedule). */
JsonValue resultToJson(const sim::RunResult &r);

/** Rebuild a RunResult; false (with *err naming the field) on a
 *  malformed document. */
bool resultFromJson(const JsonValue &o, sim::RunResult *r,
                    std::string *err);

// The tables kept in result_json.cc, for code in other files that
// nests them: a repro's error and schedule, a campaign report's
// `machine` and `result` rows.
extern template JsonValue structToJson(const chaos::SimError &, JsonValue);
extern template bool structFromJson(const JsonValue &, chaos::SimError *,
                                    std::string *);
extern template JsonValue structToJson(const chaos::FaultEvent &,
                                       JsonValue);
extern template bool structFromJson(const JsonValue &, chaos::FaultEvent *,
                                    std::string *);
extern template JsonValue structToJson(const core::MachineConfig &,
                                       JsonValue);
extern template bool structFromJson(const JsonValue &,
                                    core::MachineConfig *, std::string *);
extern template void
listKeys<core::MachineConfig>(const std::string &, std::vector<ConfigKey> *);
extern template JsonValue structToJson(const sim::RunResult &, JsonValue);
extern template bool structFromJson(const JsonValue &, sim::RunResult *,
                                    std::string *);
extern template void
listKeys<sim::RunResult>(const std::string &, std::vector<ConfigKey> *);

} // namespace edge::triage

#endif // EDGE_TRIAGE_RESULT_JSON_HH
