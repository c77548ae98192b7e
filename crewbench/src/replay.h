// Replays of a run's own artefacts through the program's public APIs:
// captured message payloads through each wire type's Parse/Serialize,
// and the agents' write-ahead logs through Wal::Append, Wal::Replay and
// Database::RestartRecover.
#ifndef CREWBENCH_REPLAY_H_
#define CREWBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "probe.h"

namespace crewbench {

struct CodecReplay {
  int64_t messages = 0;       ///< payloads replayed
  int64_t unreplayed = 0;     ///< payloads of a type with no typed codec
  int64_t parse_errors = 0;
  int64_t mismatches = 0;     ///< Serialize(Parse(p)) != p
  double parse_ns = 0;        ///< mean per payload
  double serialize_ns = 0;    ///< mean per payload
};

/// Parses every payload with its wire type's codec, serializes it back,
/// and times both passes (median of `reps` passes).
CodecReplay ReplayCodec(const std::vector<CapturedPayload>& payloads,
                        int reps = 3);

struct WalReplay {
  int64_t records = 0;        ///< over every agent log
  int64_t bytes = 0;          ///< log file bytes, every agent
  double append_ns = 0;       ///< mean Wal::Append of a replayed record
  double replay_us_per_record = 0;
  double recovery_ms = 0;     ///< RestartRecover of the largest AGDB
  std::string largest;        ///< that AGDB's name
};

/// Reads the durable AGDBs `agdb-<id>` in `dir`. Appends and recovery
/// run on copies under `scratch`, which is created and removed here.
crew::Result<WalReplay> ReplayWal(const std::string& dir,
                                  const std::vector<NodeId>& agents,
                                  const std::string& scratch);

}  // namespace crewbench

#endif  // CREWBENCH_REPLAY_H_
