// Advisory feeds (M12, Lesson 6). The paper found middleware vulnerability
// tracking fragmented: Kubernetes has a structured CVE feed, Docker posts
// blog-format announcements, ONOS's tracker is stale, Proxmox only notifies
// in its web UI. This module models the two feed shapes and the aggregator
// GENIO runs over them, measuring detection latency and recall.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "genio/common/result.hpp"
#include "genio/common/rng.hpp"
#include "genio/vuln/cve.hpp"

namespace genio::vuln {

struct FeedStats {
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  std::uint64_t missed = 0;           // lost to extraction failures
  double total_latency_hours = 0.0;   // sum over delivered advisories

  double mean_latency_hours() const {
    return delivered == 0 ? 0.0 : total_latency_hours / static_cast<double>(delivered);
  }
  double recall() const {
    return published == 0 ? 1.0
                          : static_cast<double>(delivered) / static_cast<double>(published);
  }
};

/// A source of advisories. `poll(now)` returns the records that became
/// consumable since the last poll.
class AdvisoryFeed {
 public:
  virtual ~AdvisoryFeed() = default;
  virtual const std::string& name() const = 0;
  virtual bool structured() const = 0;
  /// Vendor publishes an advisory (record.published = disclosure time).
  virtual void publish(CveRecord record) = 0;
  virtual std::vector<CveRecord> poll(SimTime now) = 0;
  virtual const FeedStats& stats() const = 0;
};

/// Machine-readable feed (Kubernetes official CVE feed, NVD API): records
/// become consumable `ingest_delay` after disclosure and extraction never
/// fails.
class StructuredFeed final : public AdvisoryFeed {
 public:
  StructuredFeed(std::string name, SimTime ingest_delay)
      : name_(std::move(name)), ingest_delay_(ingest_delay) {}

  const std::string& name() const override { return name_; }
  bool structured() const override { return true; }
  void publish(CveRecord record) override;
  std::vector<CveRecord> poll(SimTime now) override;
  const FeedStats& stats() const override { return stats_; }

 private:
  std::string name_;
  SimTime ingest_delay_;
  std::deque<CveRecord> pending_;
  FeedStats stats_;
};

/// Blog/web-UI style source (Docker announcements, Proxmox UI): each
/// advisory needs a manual review pass `review_delay` after disclosure,
/// and extraction succeeds only with probability `extraction_recall` —
/// missed items stay invisible until recover_missed() (a manual sweep).
class UnstructuredFeed final : public AdvisoryFeed {
 public:
  UnstructuredFeed(std::string name, SimTime review_delay, double extraction_recall,
                   common::Rng rng)
      : name_(std::move(name)),
        review_delay_(review_delay),
        extraction_recall_(extraction_recall),
        rng_(rng) {}

  const std::string& name() const override { return name_; }
  bool structured() const override { return false; }
  void publish(CveRecord record) override;
  std::vector<CveRecord> poll(SimTime now) override;
  const FeedStats& stats() const override { return stats_; }

  /// Deep manual sweep: recover everything missed so far (expensive in
  /// analyst time; the aggregator schedules it rarely).
  std::vector<CveRecord> recover_missed(SimTime now);

 private:
  std::string name_;
  SimTime review_delay_;
  double extraction_recall_;
  common::Rng rng_;
  std::deque<CveRecord> pending_;
  std::vector<CveRecord> missed_pile_;
  FeedStats stats_;
};

/// A feed that stopped being maintained (ONOS): publishes are accepted but
/// never delivered after the `frozen_at` cutoff.
class StaleFeed final : public AdvisoryFeed {
 public:
  StaleFeed(std::string name, SimTime frozen_at)
      : name_(std::move(name)), frozen_at_(frozen_at) {}

  const std::string& name() const override { return name_; }
  bool structured() const override { return true; }
  void publish(CveRecord record) override;
  std::vector<CveRecord> poll(SimTime now) override;
  const FeedStats& stats() const override { return stats_; }

 private:
  std::string name_;
  SimTime frozen_at_;
  std::deque<CveRecord> pending_;
  FeedStats stats_;
};

/// The advisory-data dependency the SCA gate (and patch planner) queries,
/// with Lesson 6's failure modes made explicit: the live database sits
/// behind an availability flag the chaos engine can drop, and every
/// successful refresh copies the database into a last-good snapshot. The
/// resilient consumer degrades to the snapshot — with its age flagged —
/// instead of silently scanning against nothing.
class FeedHealthService {
 public:
  explicit FeedHealthService(CveDatabase* live) : live_(live) {}

  /// Chaos hook: feed endpoint reachability.
  void set_available(bool available) { available_ = available; }
  bool available() const { return available_; }

  /// Record a successful ingest pass: snapshots the live database.
  void mark_refreshed(SimTime now) {
    snapshot_ = *live_;
    last_refresh_ = now;
  }

  /// Live database, or kUnavailable during an outage.
  common::Result<const CveDatabase*> query(const std::string& consumer) const {
    if (!available_) {
      return common::unavailable("vulnerability feed unreachable (" + consumer + ")");
    }
    return static_cast<const CveDatabase*>(live_);
  }

  /// Last-good snapshot (what the resilient path degrades to).
  const CveDatabase& snapshot() const { return snapshot_; }
  SimTime snapshot_age(SimTime now) const { return now - last_refresh_; }

 private:
  CveDatabase* live_;
  CveDatabase snapshot_;
  SimTime last_refresh_{};
  bool available_ = true;
};

/// GENIO's aggregator: polls every feed into the local database and tracks
/// end-to-end detection latency per advisory.
class FeedAggregator {
 public:
  void add_feed(AdvisoryFeed* feed) { feeds_.push_back(feed); }

  /// Poll all feeds at `now`; returns newly ingested record count.
  std::size_t poll_all(SimTime now, CveDatabase& db);

  struct LatencySample {
    std::string cve_id;
    std::string feed;
    double hours;
  };
  double mean_latency_hours() const;

 private:
  std::vector<AdvisoryFeed*> feeds_;
  std::vector<LatencySample> samples_;
};

}  // namespace genio::vuln
