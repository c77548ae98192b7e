#include "replay.h"

#include <algorithm>
#include <filesystem>
#include <map>

#include "bench.h"
#include "runtime/wire.h"
#include "storage/database.h"
#include "storage/wal.h"

namespace crewbench {

namespace fs = std::filesystem;
namespace wi = crew::runtime::wi;
using crew::Result;
using crew::Status;

namespace {

struct PassTimes {
  int64_t parse_ns = 0;
  int64_t serialize_ns = 0;
};

/// One parse pass and one serialize pass over the payloads of one type.
template <typename Msg>
PassTimes ReplayType(const std::vector<const std::string*>& payloads,
                     CodecReplay* out, bool count) {
  std::vector<Msg> parsed;
  parsed.reserve(payloads.size());
  int64_t start = NowNs();
  for (const std::string* payload : payloads) {
    Result<Msg> msg = Msg::Parse(*payload);
    if (!msg.ok()) {
      if (count) ++out->parse_errors;
      continue;
    }
    parsed.push_back(std::move(msg).value());
  }
  int64_t parsed_at = NowNs();
  std::vector<std::string> bytes;
  bytes.reserve(parsed.size());
  for (const Msg& msg : parsed) bytes.push_back(msg.Serialize());
  int64_t serialized_at = NowNs();
  if (count && parsed.size() == payloads.size()) {
    for (size_t i = 0; i < bytes.size(); ++i) {
      if (bytes[i] != *payloads[i]) ++out->mismatches;
    }
  }
  return {parsed_at - start, serialized_at - parsed_at};
}

using Replayer = PassTimes (*)(const std::vector<const std::string*>&,
                               CodecReplay*, bool);

const std::map<std::string, Replayer>& Replayers() {
  namespace rt = crew::runtime;
  static const std::map<std::string, Replayer> table = {
      {wi::kWorkflowStart, &ReplayType<rt::WorkflowStartMsg>},
      {wi::kWorkflowChangeInputs, &ReplayType<rt::WorkflowChangeInputsMsg>},
      {wi::kInputsChanged, &ReplayType<rt::WorkflowChangeInputsMsg>},
      {wi::kWorkflowAbort, &ReplayType<rt::WorkflowAbortMsg>},
      {wi::kWorkflowStatus, &ReplayType<rt::WorkflowStatusMsg>},
      {wi::kWorkflowStatusReply, &ReplayType<rt::WorkflowStatusReplyMsg>},
      {wi::kStepExecute, &ReplayType<rt::StepExecuteMsg>},
      {wi::kStepCompensate, &ReplayType<rt::StepCompensateMsg>},
      {wi::kStepCompleted, &ReplayType<rt::StepCompletedMsg>},
      {wi::kStepStatus, &ReplayType<rt::StepStatusMsg>},
      {wi::kStepStatusReply, &ReplayType<rt::StepStatusReplyMsg>},
      {wi::kWorkflowRollback, &ReplayType<rt::WorkflowRollbackMsg>},
      {wi::kHaltThread, &ReplayType<rt::HaltThreadMsg>},
      {wi::kCompensateSet, &ReplayType<rt::CompensateSetMsg>},
      {wi::kCompensateThread, &ReplayType<rt::CompensateThreadMsg>},
      {wi::kStateInformation, &ReplayType<rt::StateInformationMsg>},
      {wi::kStateInformationReply,
       &ReplayType<rt::StateInformationReplyMsg>},
      {wi::kAddRule, &ReplayType<rt::AddRuleMsg>},
      {wi::kAddEvent, &ReplayType<rt::AddEventMsg>},
      {wi::kAddPrecondition, &ReplayType<rt::AddPreconditionMsg>},
      {wi::kRunProgram, &ReplayType<rt::RunProgramMsg>},
      {wi::kRunProgramReply, &ReplayType<rt::RunProgramReplyMsg>},
      {wi::kPurgeInstances, &ReplayType<rt::PurgeInstancesMsg>},
  };
  return table;
}

}  // namespace

CodecReplay ReplayCodec(const std::vector<CapturedPayload>& payloads,
                        int reps) {
  CodecReplay out;
  std::map<std::string, std::vector<const std::string*>> by_type;
  for (const CapturedPayload& captured : payloads) {
    if (Replayers().count(captured.type) == 0) {
      ++out.unreplayed;
      continue;
    }
    by_type[captured.type].push_back(&captured.payload);
    ++out.messages;
  }
  if (out.messages == 0) return out;
  std::vector<double> parse, serialize;
  for (int rep = 0; rep < reps; ++rep) {
    PassTimes total;
    for (const auto& [type, list] : by_type) {
      PassTimes pass = Replayers().at(type)(list, &out, rep == 0);
      total.parse_ns += pass.parse_ns;
      total.serialize_ns += pass.serialize_ns;
    }
    parse.push_back(static_cast<double>(total.parse_ns) / out.messages);
    serialize.push_back(static_cast<double>(total.serialize_ns) /
                        out.messages);
  }
  out.parse_ns = Median(parse);
  out.serialize_ns = Median(serialize);
  return out;
}

Result<WalReplay> ReplayWal(const std::string& dir,
                            const std::vector<NodeId>& agents,
                            const std::string& scratch) {
  WalReplay out;
  std::error_code ec;
  fs::remove_all(scratch, ec);
  if (!fs::create_directories(scratch, ec)) {
    return Status::Internal("cannot create " + scratch);
  }

  // Count every agent's records; remember the largest log.
  std::vector<std::string> records;
  int64_t largest_bytes = -1;
  for (NodeId id : agents) {
    std::string name = "agdb-" + std::to_string(id);
    std::string path = dir + "/" + name + ".wal";
    if (!fs::exists(path)) continue;
    int64_t bytes = static_cast<int64_t>(fs::file_size(path, ec));
    out.bytes += bytes;
    crew::storage::Wal reader;
    Status read = reader.Replay(path, [&](const std::string& record) {
      ++out.records;
      if (records.size() < 50000) records.push_back(record);
    });
    if (!read.ok()) return read;
    if (bytes > largest_bytes) {
      largest_bytes = bytes;
      out.largest = name;
    }
  }
  if (out.largest.empty()) return out;

  // Wal::Append of the run's own records into a fresh log.
  {
    crew::storage::Wal wal;
    Status opened = wal.Open(scratch + "/append.wal");
    if (!opened.ok()) return opened;
    int64_t start = NowNs();
    for (const std::string& record : records) {
      Status appended = wal.Append(record);
      if (!appended.ok()) return appended;
    }
    out.append_ns = records.empty() ? 0
                                    : static_cast<double>(NowNs() - start) /
                                          static_cast<double>(records.size());
  }

  // Replay and restart-recovery of the largest AGDB, on a copy.
  std::string copy = scratch + "/recover";
  fs::create_directories(copy, ec);
  for (const char* suffix : {".wal", ".snap"}) {
    std::string from = dir + "/" + out.largest + suffix;
    if (fs::exists(from)) {
      fs::copy_file(from, copy + "/" + out.largest + suffix, ec);
      if (ec) return Status::Internal("cannot copy " + from);
    }
  }
  {
    crew::storage::Wal reader;
    int64_t replayed = 0;
    int64_t start = NowNs();
    Status read = reader.Replay(copy + "/" + out.largest + ".wal",
                                [&](const std::string&) { ++replayed; });
    if (!read.ok()) return read;
    if (replayed > 0) {
      out.replay_us_per_record =
          static_cast<double>(NowNs() - start) / 1e3 / replayed;
    }
  }
  {
    crew::storage::Database db(out.largest);
    Status opened = db.OpenDurable(copy);
    if (!opened.ok()) return opened;
    int64_t start = NowNs();
    Result<int64_t> recovered = db.RestartRecover(copy);
    out.recovery_ms = static_cast<double>(NowNs() - start) / 1e6;
    if (!recovered.ok()) return recovered.status();
  }
  fs::remove_all(scratch, ec);
  return out;
}

}  // namespace crewbench
