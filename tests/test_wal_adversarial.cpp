// Adversarial WAL inputs: deterministic mutations of a real daemon WAL —
// single-bit flips, truncation at every k-th byte, frame splices, and
// 0xFFFFFFFF length headers — fed to the frame scan (scan_wal),
// recover_wal and daemon resume. None may crash; each must either fail
// with a message, leaving the file as it was, or recover exactly the
// valid frame prefix. A CRC-valid record with broken JSON
// deep inside a nested array must still fail recovery, which pins the
// shallow record parse to the full grammar; a differential check holds
// parse_json_shallow to parse_json's accept/reject verdicts.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "recovery/durable.h"
#include "recovery/wal.h"
#include "service/daemon.h"
#include "service/http_client.h"

namespace muri {
namespace {

using recovery::FrameKind;
using recovery::RecoverResult;
using recovery::WalImage;

// ctest runs each test in its own process, concurrently: the pid keeps
// their scratch files apart.
std::string temp_path(const std::string& name) {
  return testing::TempDir() + "muri_wal_adversarial_" +
         std::to_string(::getpid()) + "_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// Small deterministic generator (the mutations must repeat run to run).
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
};

service::DaemonOptions daemon_options(const std::string& wal) {
  service::DaemonOptions options;
  options.manual_time = true;
  options.cluster.num_machines = 2;
  options.cluster.gpus_per_machine = 4;
  options.round_interval_s = 360;
  options.wal_path = wal;
  options.fsync = recovery::DurableSinkOptions::Fsync::kNone;
  return options;
}

// The fixture: the WAL of a live daemon session with enough contention
// for Blossom rounds, so it carries job_submit, match_round, placement,
// preempt, job_progress, finish and daemon_start/stop records. Built once.
const std::string& fixture_wal() {
  static const std::string bytes = [] {
    const std::string path = temp_path("fixture.wal");
    std::remove(path.c_str());
    service::MuriDaemon daemon(daemon_options(path));
    std::string error;
    if (!daemon.start(&error)) return std::string();
    const char* models[] = {"resnet18", "vgg19", "bert", "gpt2", "dqn",
                            "a2c"};
    for (int i = 0; i < 10; ++i) {
      const std::string body =
          std::string("{\"model\":\"") + models[i % 6] +
          "\",\"gpus\":" + std::to_string(1 + i % 2) +
          ",\"iterations\":" + std::to_string(2000 + 700 * i) + "}";
      service::ClientResponse resp;
      service::http_request(daemon.port(), "POST", "/jobs", body, resp,
                            &error);
      daemon.step(90);
    }
    for (int i = 0; i < 12; ++i) daemon.step(300);
    daemon.stop();
    std::string wal = slurp(path);
    std::remove(path.c_str());
    return wal;
  }();
  return bytes;
}

struct FixtureFrames {
  WalImage image;
  std::vector<std::size_t> starts;  // frame start offsets (header first)
  std::size_t frame_at(std::size_t byte) const {
    std::size_t i = 0;
    while (i + 1 < starts.size() && starts[i + 1] <= byte) ++i;
    return i;
  }
};

const FixtureFrames& fixture_frames() {
  static const FixtureFrames f = [] {
    FixtureFrames out;
    out.image = recovery::scan_wal(fixture_wal());
    for (const WalImage::Frame& frame : out.image.frames) {
      out.starts.push_back(frame.offset - recovery::kWalHeaderSize);
    }
    return out;
  }();
  return f;
}

using FrameList = std::vector<std::pair<FrameKind, std::string>>;

std::string rebuild(const FrameList& fs) {
  std::string bytes;
  for (const auto& [kind, payload] : fs) {
    recovery::append_wal_frame(bytes, kind, payload);
  }
  return bytes;
}

FrameList fixture_frame_list() {
  const WalImage& image = fixture_frames().image;
  FrameList out;
  for (const WalImage::Frame& f : image.frames) {
    out.emplace_back(f.kind, std::string(image.payload(f)));
  }
  return out;
}

// Reader-level contract on arbitrary bytes: the decoded frames re-encode
// to exactly the reported valid prefix, and recover_wal over the bytes
// agrees with recover_wal over that prefix alone — same verdict, same
// state. Returns whether recovery succeeded.
bool check_reader(const std::string& bytes) {
  const WalImage decoded = recovery::scan_wal(bytes);
  EXPECT_LE(decoded.valid_bytes, bytes.size());
  EXPECT_EQ(decoded.torn, decoded.valid_bytes != bytes.size());
  std::string reencoded;
  for (const WalImage::Frame& frame : decoded.frames) {
    recovery::append_wal_frame(reencoded, frame.kind, decoded.payload(frame));
  }
  EXPECT_EQ(reencoded, bytes.substr(0, decoded.valid_bytes));

  RecoverResult recovered;
  std::string error;
  const bool ok = recovery::recover_wal(recovery::scan_wal(bytes), recovered,
                                        &error);
  RecoverResult clean;
  std::string clean_error;
  const bool clean_ok = recovery::recover_wal(
      recovery::scan_wal(bytes.substr(0, decoded.valid_bytes)), clean,
      &clean_error);
  EXPECT_EQ(ok, clean_ok) << error << " | " << clean_error;
  if (!ok) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  EXPECT_EQ(recovered.state, clean.state);
  EXPECT_EQ(recovered.records_on_disk, clean.records_on_disk);
  EXPECT_EQ(recovered.valid_bytes, decoded.valid_bytes);
  return true;
}

// Daemon resume on `bytes`: never crashes; a failure carries a message
// and leaves the file byte-identical, and a success leaves the file as
// the valid prefix plus this session's records, decoding clean.
bool check_daemon_resume(const std::string& bytes) {
  const std::string path = temp_path("mutant.wal");
  spit(path, bytes);
  const std::size_t valid = recovery::scan_wal(bytes).valid_bytes;
  service::DaemonOptions options = daemon_options(path);
  options.resume = true;
  service::MuriDaemon daemon(options);
  std::string error;
  if (!daemon.start(&error)) {
    EXPECT_FALSE(error.empty());
    EXPECT_TRUE(slurp(path) == bytes) << "failed resume changed the file";
    std::remove(path.c_str());
    return false;
  }
  daemon.step(0);
  daemon.stop();
  const std::string after = slurp(path);
  std::remove(path.c_str());
  EXPECT_EQ(after.substr(0, valid), bytes.substr(0, valid));
  const WalImage decoded = recovery::scan_wal(after);
  EXPECT_FALSE(decoded.torn) << decoded.torn_reason;
  EXPECT_GT(after.size(), valid);
  return true;
}

TEST(WalAdversarial, FixtureCarriesTheFullRecordVocabulary) {
  const WalImage& image = fixture_frames().image;
  ASSERT_FALSE(image.torn);
  std::set<std::string> types;
  for (const WalImage::Frame& f : image.frames) {
    obs::JsonValue rec;
    ASSERT_TRUE(obs::parse_json(image.payload(f), rec));
    types.insert(rec.at("type").string);
  }
  for (const char* type : {"job_submit", "match_round", "placement", "finish",
                           "daemon_start", "daemon_stop"}) {
    EXPECT_EQ(types.count(type), 1u) << type;
  }
  EXPECT_GT(image.frames.size(), 100u);
}

TEST(WalAdversarial, BitFlipsStopTheScanAtTheDamagedFrame) {
  const std::string& clean = fixture_wal();
  const FixtureFrames& frames = fixture_frames();
  ASSERT_FALSE(clean.empty());
  Lcg rng{7};
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = clean;
    const std::size_t at = rng.below(bytes.size());
    bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.below(8)));
    SCOPED_TRACE("flip at byte " + std::to_string(at));
    // CRC-32 catches every single-bit error, and a flipped header field
    // fails magic, kind, length or checksum: the scan keeps exactly the
    // frames before the damaged one.
    const WalImage decoded = recovery::scan_wal(bytes);
    const std::size_t hit = frames.frame_at(at);
    EXPECT_TRUE(decoded.torn);
    EXPECT_EQ(decoded.valid_bytes, frames.starts[hit]);
    EXPECT_EQ(decoded.frames.size(), hit);
    // The surviving prefix is original frames, so recovery succeeds.
    EXPECT_TRUE(check_reader(bytes));
    if (trial % 15 == 0) {
      EXPECT_TRUE(check_daemon_resume(bytes));
    }
  }
}

TEST(WalAdversarial, TruncationAtEveryKthByteRecoversTheWholeFrames) {
  const std::string& clean = fixture_wal();
  const FixtureFrames& frames = fixture_frames();
  ASSERT_FALSE(clean.empty());
  const std::size_t k = std::max<std::size_t>(1, clean.size() / 250) | 1;
  std::size_t resumed = 0;
  for (std::size_t cut = 0; cut <= clean.size(); cut += k) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    const std::string bytes = clean.substr(0, cut);
    const WalImage decoded = recovery::scan_wal(bytes);
    std::size_t whole = 0;
    while (whole < frames.starts.size() &&
           frames.starts[whole] + recovery::kWalHeaderSize +
                   frames.image.frames[whole].size <=
               cut) {
      ++whole;
    }
    EXPECT_EQ(decoded.frames.size(), whole);
    EXPECT_TRUE(check_reader(bytes));
    if ((cut / k) % 20 == 0) {
      EXPECT_TRUE(check_daemon_resume(bytes));
      ++resumed;
    }
  }
  EXPECT_GT(resumed, 5u);
}

TEST(WalAdversarial, SplicedFramesFailCleanlyOrRecoverTheValidPrefix) {
  const auto frames = fixture_frame_list();
  ASSERT_GT(frames.size(), 20u);
  Lcg rng{11};
  std::vector<std::string> mutants;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t i = 1 + rng.below(frames.size() - 2);
    const std::size_t j = 1 + rng.below(frames.size() - 2);
    auto dropped = frames;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
    mutants.push_back(rebuild(dropped));
    auto duplicated = frames;
    duplicated.insert(duplicated.begin() + static_cast<std::ptrdiff_t>(j),
                      frames[i]);
    mutants.push_back(rebuild(duplicated));
    auto swapped = frames;
    std::swap(swapped[i], swapped[j]);
    mutants.push_back(rebuild(swapped));
    // Frame i's header in front of frame j's payload: a checksum (or
    // length) mismatch the scan must stop at.
    const auto cut = frames.begin() + static_cast<std::ptrdiff_t>(i);
    std::string header_i;
    recovery::append_wal_frame(header_i, frames[i].first, frames[i].second);
    header_i.resize(recovery::kWalHeaderSize);
    mutants.push_back(rebuild(FrameList(frames.begin(), cut)) + header_i +
                      frames[j].second + rebuild(FrameList(cut + 1,
                                                           frames.end())));
    // A record payload re-framed as a snapshot: CRC-valid, undecodable.
    auto as_snapshot = frames;
    as_snapshot[i].first = FrameKind::kSnapshot;
    mutants.push_back(rebuild(as_snapshot));
  }
  // A CRC-valid frame that is not JSON at all.
  auto garbage = frames;
  garbage.insert(garbage.begin() + 3, {FrameKind::kRecord, "not json"});
  mutants.push_back(rebuild(garbage));

  for (std::size_t m = 0; m < mutants.size(); ++m) {
    SCOPED_TRACE("mutant " + std::to_string(m));
    const bool recovered = check_reader(mutants[m]);
    const bool resumed = check_daemon_resume(mutants[m]);
    // The daemon runs the same core plus its job-table visitor, so a WAL
    // recovery rejects never starts a daemon.
    if (!recovered) {
      EXPECT_FALSE(resumed);
    }
  }
}

TEST(WalAdversarial, JobWithoutADurableSubmitIsNotRestored) {
  // Splice out the job_submit of a job that has a later job_progress
  // checkpoint: its spec is gone, so resume must not invent a job from
  // the checkpoint alone, while the other unfinished jobs come back.
  auto frames = fixture_frame_list();
  std::set<std::int64_t> checkpointed;
  for (const auto& [kind, payload] : frames) {
    obs::JsonValue rec;
    ASSERT_TRUE(obs::parse_json(payload, rec));
    if (rec.at("type").string == "job_progress") {
      checkpointed.insert(static_cast<std::int64_t>(rec.at("job").number));
    }
  }
  ASSERT_GE(checkpointed.size(), 2u);
  const std::int64_t victim = *checkpointed.begin();
  for (auto it = frames.begin(); it != frames.end(); ++it) {
    obs::JsonValue rec;
    ASSERT_TRUE(obs::parse_json(it->second, rec));
    if (rec.at("type").string == "job_submit" &&
        static_cast<std::int64_t>(rec.at("job").number) == victim) {
      frames.erase(it);
      break;
    }
  }
  const std::string path = temp_path("no_submit.wal");
  spit(path, rebuild(frames));
  service::DaemonOptions options = daemon_options(path);
  options.resume = true;
  service::MuriDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  for (const std::int64_t id : checkpointed) {
    service::ClientResponse resp;
    ASSERT_TRUE(service::http_request(daemon.port(), "GET",
                                      "/jobs/" + std::to_string(id), "",
                                      resp, &error))
        << error;
    EXPECT_EQ(resp.status, id == victim ? 404 : 200) << "job " << id;
  }
  daemon.stop();
  std::remove(path.c_str());
}

TEST(WalAdversarial, CrcValidSubmitWithAnInvalidJobIdFailsResume) {
  // Job ids index the engine's dense job table, so a CRC-valid job_submit
  // carrying a negative, fractional or huge id must fail resume with a
  // message instead of sizing the table from it.
  for (const char* bad : {"-5", "2.5", "1e15"}) {
    auto frames = fixture_frame_list();
    bool replaced = false;
    for (auto& [kind, payload] : frames) {
      obs::JsonValue rec;
      ASSERT_TRUE(obs::parse_json(payload, rec));
      if (rec.at("type").string != "job_submit") continue;
      const std::string key =
          "\"job\":" +
          std::to_string(static_cast<std::int64_t>(rec.at("job").number));
      const std::size_t at = payload.find(key);
      ASSERT_NE(at, std::string::npos) << payload;
      payload.replace(at, key.size(), std::string("\"job\":") + bad);
      replaced = true;
      break;
    }
    ASSERT_TRUE(replaced);
    const std::string path = temp_path("bad_job_id.wal");
    const std::string bytes = rebuild(frames);
    spit(path, bytes);
    service::DaemonOptions options = daemon_options(path);
    options.resume = true;
    service::MuriDaemon daemon(options);
    std::string error;
    EXPECT_FALSE(daemon.start(&error)) << bad;
    EXPECT_NE(error.find("invalid job id"), std::string::npos) << error;
    EXPECT_EQ(slurp(path), bytes) << "failed resume modified the WAL";
    std::remove(path.c_str());
  }
}

TEST(WalAdversarial, HugeLengthHeadersStopTheScanWithoutAllocating) {
  const std::string& clean = fixture_wal();
  const FixtureFrames& frames = fixture_frames();
  for (const std::uint32_t len : {0xFFFFFFFFu, 0x7FFFFFFFu,
                                  static_cast<std::uint32_t>(clean.size())}) {
    for (const std::size_t i :
         {std::size_t{0}, frames.starts.size() / 2, frames.starts.size() - 1}) {
      SCOPED_TRACE("len " + std::to_string(len) + " at frame " +
                   std::to_string(i));
      std::string bytes = clean;
      const std::size_t field = frames.starts[i] + 5;
      for (int b = 0; b < 4; ++b) {
        bytes[field + b] = static_cast<char>((len >> (8 * b)) & 0xFF);
      }
      const WalImage decoded = recovery::scan_wal(bytes);
      EXPECT_TRUE(decoded.torn);
      EXPECT_EQ(decoded.valid_bytes, frames.starts[i]);
      EXPECT_NE(decoded.torn_reason.find("incomplete frame payload"),
                std::string::npos)
          << decoded.torn_reason;
      EXPECT_TRUE(check_reader(bytes));
      EXPECT_TRUE(check_daemon_resume(bytes));
    }
  }
}

TEST(WalAdversarial, BrokenJsonInACrcValidMatchRoundFailsRecovery) {
  auto frames = fixture_frame_list();
  std::size_t target = frames.size();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].second.find("\"type\":\"match_round\"") !=
        std::string::npos) {
      target = i;
      break;
    }
  }
  ASSERT_LT(target, frames.size());
  // Break the grammar deep inside the record's nested arrays — the part
  // the shallow parse checks but never builds.
  std::string& payload = frames[target].second;
  const std::size_t nested = payload.find("[[");
  const std::size_t at = nested != std::string::npos
                             ? nested + 1
                             : payload.rfind(']');
  ASSERT_NE(at, std::string::npos);
  payload.insert(at + 1, ",");
  const std::string bytes = rebuild(frames);

  const WalImage decoded = recovery::scan_wal(bytes);
  EXPECT_FALSE(decoded.torn);  // every CRC checks out

  obs::JsonValue rec;
  EXPECT_FALSE(obs::parse_json_shallow(payload, rec));
  RecoverResult recovered;
  std::string error;
  EXPECT_FALSE(recovery::recover_wal(recovery::scan_wal(bytes), recovered,
                                     &error));
  EXPECT_NE(error.find("record frame " + std::to_string(target)),
            std::string::npos)
      << error;
  EXPECT_FALSE(check_daemon_resume(bytes));
  // With a torn tail behind it too, the failed resume must not have cut
  // the file (check_daemon_resume compares it byte for byte).
  EXPECT_FALSE(check_daemon_resume(bytes + fixture_wal().substr(0, 20)));
}

// The shallow parse accepts and rejects exactly what the full parse does,
// and agrees on every top-level scalar, over mutations of real records.
TEST(WalAdversarial, ShallowParseMatchesFullParseVerdicts) {
  const WalImage& image = fixture_frames().image;
  const char kInserts[] = "[]{},:\"\\-.e0 x";
  Lcg rng{3};
  std::size_t rejected = 0;
  for (std::size_t trial = 0; trial < 3000; ++trial) {
    const WalImage::Frame& f =
        image.frames[rng.below(image.frames.size())];
    std::string text(image.payload(f));
    switch (rng.below(3)) {
      case 0:
        text[rng.below(text.size())] ^= static_cast<char>(1 << rng.below(7));
        break;
      case 1:
        text.resize(rng.below(text.size()));
        break;
      default:
        text.insert(rng.below(text.size() + 1), 1,
                    kInserts[rng.below(sizeof(kInserts) - 1)]);
    }
    obs::JsonValue full;
    obs::JsonValue shallow;
    std::string full_error;
    std::string shallow_error;
    const bool full_ok = obs::parse_json(text, full, &full_error);
    const bool shallow_ok = obs::parse_json_shallow(text, shallow,
                                                    &shallow_error);
    ASSERT_EQ(full_ok, shallow_ok) << text;
    EXPECT_EQ(full_error, shallow_error) << text;
    if (!full_ok) {
      ++rejected;
      continue;
    }
    for (const auto& [key, value] : full.object) {
      if (value.is_array() || value.is_object()) {
        EXPECT_EQ(shallow.object.count(key), 0u) << key;
        continue;
      }
      const obs::JsonValue& s = shallow.at(key);
      EXPECT_EQ(s.type, value.type) << key;
      EXPECT_EQ(s.string, value.string) << key;
      EXPECT_EQ(s.boolean, value.boolean) << key;
      if (value.is_number()) {
        EXPECT_EQ(s.number, value.number) << key;
      }
    }
  }
  EXPECT_GT(rejected, 500u);
}

// Number tokens: the grammar check accepts exactly the tokens strtod
// consumes whole (the parser's historical definition), over every token
// of up to five characters from the number alphabet [0-9.eE+-].
TEST(WalAdversarial, NumberGrammarMatchesStrtodOverShortTokens) {
  // Digits other than 0 behave alike, so 1 and 7 stand in for them.
  const std::string reduced = "017.eE+-";
  std::vector<std::string> tokens{""};
  std::vector<std::string> frontier{""};
  for (int len = 1; len <= 5; ++len) {
    std::vector<std::string> next;
    for (const std::string& t : frontier) {
      for (const char c : reduced) next.push_back(t + c);
    }
    tokens.insert(tokens.end(), next.begin(), next.end());
    frontier = std::move(next);
  }
  for (const std::string& token : tokens) {
    if (token.empty()) continue;
    char* end = nullptr;
    const double ref = std::strtod(token.c_str(), &end);
    const bool strtod_whole = end != nullptr && *end == '\0';
    obs::JsonValue v;
    const bool ok = obs::parse_json("[" + token + "]", v);
    EXPECT_EQ(ok, strtod_whole) << token;
    obs::JsonValue s;
    EXPECT_EQ(obs::parse_json_shallow("{\"n\":" + token + "}", s), ok)
        << token;
    if (ok) {
      EXPECT_EQ(v.array.at(0).number, ref) << token;
      EXPECT_EQ(s.at("n").number, ref) << token;
    }
  }
}

}  // namespace
}  // namespace muri
