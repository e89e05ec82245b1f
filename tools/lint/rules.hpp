// Per-rule entry points. Each rule receives the tokenized + modeled TU and
// appends findings; the engine owns suppression and baseline filtering.
//
// Rule ids (stable — used by suppressions, baselines, and --rule):
//   determinism          banned wall-clock / RNG identifiers in the
//                        deterministic subsystems (simnet/, fault/, mpi/,
//                        core/) — time must come through util::TimeSource
//   raw-sync             raw std:: synchronization primitives outside
//                        util/sync (use sync::Mutex & friends)
//   guarded-by           a sync::Mutex class member never referenced by any
//                        GUARDED_BY/PT_GUARDED_BY annotation in its class
//   metric-inventory     metric registration sites must use names from
//                        src/obs/metric_names.inc, with matching kinds and
//                        no conflicting duplicate registrations
//   codec-id             compressor registry ids must be literal-unique and
//                        below the chunked-container reserved bit range
//   crc-before-interpret in core/ and cluster/, no byte of a received
//                        message may be read, and no reply status
//                        compared, before mpi::unseal() (or call(), which
//                        unseals) in the same function
//   eventfd-wakeup       ipc/ event-loop arm flags must use exchange(), not
//                        store()/assignment (lost-wakeup protection; see
//                        the protocol comment in ipc/event_loop.hpp)
#pragma once

#include <map>
#include <string>
#include <vector>

#include "engine.hpp"
#include "model.hpp"
#include "token.hpp"

namespace fanstore::lint {

struct FileCtx {
  std::string rel;  // path relative to the lint root, '/' separators
  const std::vector<Token>* tokens = nullptr;
  const TuModel* model = nullptr;
};

void rule_determinism(const FileCtx& ctx, std::vector<Finding>* out);
void rule_raw_sync(const FileCtx& ctx, std::vector<Finding>* out);
void rule_guarded_by(const FileCtx& ctx, std::vector<Finding>* out);
void rule_codec_ids(const FileCtx& ctx, std::vector<Finding>* out);
void rule_crc_order(const FileCtx& ctx, std::vector<Finding>* out);
void rule_eventfd_wakeup(const FileCtx& ctx, std::vector<Finding>* out);

// metric-inventory accumulates cross-TU state: every registration site is
// checked against the inventory as it is seen, and finalize() reports
// conflicting duplicate kinds, stale inventory entries, and inventory names
// missing from the design doc.
struct MetricsState {
  struct InventoryEntry {
    std::string kind;  // "counter" | "gauge" | "histogram"
    int line = 0;      // line in the inventory file
    bool registered = false;
  };
  struct Registration {
    std::string kind;
    std::string file;
    int line = 0;
  };
  bool enabled = false;
  std::string inventory_rel;  // display path for inventory-anchored findings
  std::map<std::string, InventoryEntry> inventory;
  std::map<std::string, Registration> first_registration;
};

/// Parses FANSTORE_METRIC("name", kind) lines. Returns false (with a
/// message in *error) when the file is unreadable or malformed.
bool metrics_load_inventory(const std::string& path,
                            const std::string& display_path, MetricsState* st,
                            std::string* error);

void rule_metric_inventory(const FileCtx& ctx, MetricsState* st,
                           std::vector<Finding>* out);

/// design_text may be empty to skip the design-doc presence check.
void metrics_finalize(MetricsState* st, const std::string& design_text,
                      std::vector<Finding>* out);

}  // namespace fanstore::lint
