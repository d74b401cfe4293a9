/**
 * @file
 * JSON serialization of the simulator's run-facing structs —
 * MachineConfig, SimError, and the complete RunResult. Shared by
 * `.repro.json` capture (triage/repro), the supervised-campaign
 * worker protocol (a child process returns its RunResult over a pipe
 * as one JSON document), and the campaign journal (every completed
 * cell's result is a JSONL record).
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
#include "triage/jsonio.hh"

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

/** One settable config field, addressed by its JSON path. */
struct ConfigKey
{
    std::string path;  ///< e.g. "core.num_frames"
    const char *doc;
    /** Default value as compact JSON; empty for a nested struct. */
    std::string value;
};

/** Every config field and nested struct, in JSON emission order. */
std::vector<ConfigKey> configKeys();

/** The `--set key=value` override: `key` is a leaf JSON path of
 *  configKeys(), `value` a JSON literal or a bare enum name. */
bool applyConfigOverride(core::MachineConfig *cfg, const std::string &key,
                         const std::string &value, std::string *err);

/** A chaos-event schedule (RunResult and repro files share it). */
JsonValue eventsToJson(const std::vector<chaos::FaultEvent> &events);
/** `sched` may be null (no schedule); false on an unknown site. */
bool eventsFromJson(const JsonValue *sched,
                    std::vector<chaos::FaultEvent> *events,
                    std::string *err);

JsonValue errorToJson(const chaos::SimError &e);
/** False (with *err set) on an unknown reason name. */
bool errorFromJson(const JsonValue &o, chaos::SimError *e,
                   std::string *err);

/** Serialize a complete RunResult (all metrics, counters,
 *  histograms, and the chaos-event schedule). */
JsonValue resultToJson(const sim::RunResult &r);

/** Rebuild a RunResult; false (with *err set) on a malformed
 *  document. */
bool resultFromJson(const JsonValue &o, sim::RunResult *r,
                    std::string *err);

} // namespace edge::triage

#endif // EDGE_TRIAGE_RESULT_JSON_HH
