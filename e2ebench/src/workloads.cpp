#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "alya/fsi.hpp"
#include "alya/nastin.hpp"
#include "alya/threading.hpp"
#include "alya/tube_mesh.hpp"
#include "core/campaign.hpp"
#include "core/runner.hpp"
#include "fault/hazard.hpp"
#include "fault/schedule.hpp"
#include "fault/spec.hpp"
#include "gateway/chaos.hpp"
#include "gateway/service.hpp"
#include "gateway/study.hpp"
#include "gateway/workload.hpp"
#include "hw/presets.hpp"
#include "obs/collector.hpp"
#include "obs/export.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "sim/rng.hpp"

namespace e2e {

namespace {

namespace hc = hpcs::container;
namespace hs = hpcs::study;
namespace ha = hpcs::alya;

// Sizes.  A default iteration takes a few tenths of a second on a 4-core
// x86 host at the seed commit (artery-paper about one second), so one
// run holds tens of iterations and their median is steady against the
// iteration-to-iteration noise of a shared host.  The scheduler and
// hedged-gateway sizes sit on their quadratic cliffs: the full size costs
// about 3.5x the half-size probe.
constexpr int kSchedJobs = 6000;
constexpr double kHedgedHorizonS = 3600.0;
constexpr double kObservedHorizonS = 10800.0;
constexpr double kTimeseriesWindowS = 60.0;
// The CFD solve runs to t = 1.2 at dt = 5e-3, seven decay times of the
// slowest viscous mode, so the velocity is within ~0.1% of steady flow.
constexpr int kCfdSteps = 240;
constexpr int kFsiSteps = 6;
// Poiseuille check: the test suite's tolerance for this 8x8-section mesh.
constexpr double kPoiseuilleTol = 0.08;
// Pooled and 1-thread passes differ only in reduction order.
constexpr double kSerialRelTol = 1e-9;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void add_samples(Digest& d, std::string_view key,
                 const hpcs::sim::Samples& s) {
  d.add(key, static_cast<std::uint64_t>(s.count()));
  if (s.empty()) return;
  d.add(key, s.quantile(0.5)).add(key, s.quantile(0.99)).add(key, s.mean());
}

void add_cache(Digest& d, const hpcs::gateway::CacheStats& c) {
  d.add("local_hits", c.local_hits)
      .add("shared_hits", c.shared_hits)
      .add("misses", c.misses)
      .add("local_evictions", c.local_evictions)
      .add("shared_evictions", c.shared_evictions)
      .add("stale_hits", c.stale_hits);
}

double hit_ratio(const hpcs::gateway::CacheStats& c) {
  return ratio(static_cast<double>(c.local_hits + c.shared_hits),
               static_cast<double>(c.lookups()));
}

/// Runs \p body as one checked operation: an exception fails it.
template <class Body>
void checked(Checks& checks, const std::string& workload, std::uint64_t seed,
             int threads, const std::string& name, Body&& body) {
  CheckedOp op{name, {}, {}};
  try {
    body(op);
  } catch (const std::exception& e) {
    op.require(false, std::string("exception: ") + e.what());
  }
  checks.record(workload, seed, threads, std::move(op));
}

// ---------------------------------------------------------------- sched

Iteration sched_iteration(std::uint64_t seed, const Variant& v, Tracer& tr,
                          Checks& checks) {
  namespace hsch = hpcs::sched;
  Iteration it;
  it.cell_seed = seed;
  checked(checks, "sched-backfill", seed, 0, "cell" + v.tag,
          [&](CheckedOp& op) {
    Scope iteration(tr, "sched-backfill.iteration");
    const auto t0 = Clock::now();
    hsch::SchedWorkloadSpec spec;
    spec.jobs = static_cast<int>(std::lround(kSchedJobs * v.scale));
    spec.mix = "container-heavy";
    spec.load = 1.0;
    hsch::SchedConfig config;
    config.policy = hsch::SchedPolicy::preset("backfill-dedicated");
    config.gateway_enabled = true;
    const hpcs::sim::Rng root{seed};
    std::optional<hpcs::gateway::ImageCatalog> catalog;
    std::unique_ptr<hsch::BatchScheduler> scheduler;
    {
      Scope setup(tr, "sched.setup");
      {
        Scope s(tr, "sched.ImageCatalog");
        catalog.emplace(spec.catalog_spec(), root);
      }
      std::vector<hsch::JobSpec> jobs;
      {
        Scope s(tr, "sched.generate_jobs");
        jobs = hsch::generate_jobs(spec, root);
      }
      double horizon = 0.0;
      for (const hsch::JobSpec& job : jobs)
        horizon = std::max(horizon, job.submit_s + 3.0 * job.walltime_s);
      Scope s(tr, "sched.BatchScheduler");
      hpcs::fault::FaultInjector faults(
          hpcs::fault::FaultSpec::preset("none"), seed);
      hpcs::fault::HazardSchedule hazards =
          hpcs::fault::HazardInjector(hpcs::fault::HazardSpec::preset("none"),
                                      seed)
              .schedule(horizon, config.nodes);
      scheduler = std::make_unique<hsch::BatchScheduler>(
          config, std::move(jobs), *catalog, std::move(faults),
          std::move(hazards), nullptr);
    }
    it.setup_s = seconds_since(t0);
    const auto t1 = Clock::now();
    hsch::SchedResult result;
    {
      Scope s(tr, "sched.run");
      result = scheduler->run();
    }
    it.host_s = seconds_since(t1);

    const hsch::SchedStats& st = result.stats;
    op.require(st.submitted == static_cast<std::uint64_t>(spec.jobs),
               "submitted != generated jobs");
    op.require(st.completed + st.failed + st.shed == st.submitted,
               "job conservation: completed + failed + shed != submitted");
    op.require(std::all_of(result.jobs.begin(), result.jobs.end(),
                           [](const hsch::JobRecord& j) {
                             return j.state == hsch::JobState::Completed ||
                                    j.state == hsch::JobState::Failed ||
                                    j.state == hsch::JobState::Shed;
                           }),
               "a job ended in a non-terminal state");
    Digest d;
    d.add("submitted", st.submitted)
        .add("completed", st.completed)
        .add("failed", st.failed)
        .add("shed", st.shed)
        .add("timeouts", st.timeouts)
        .add("requeues", st.requeues)
        .add("crashes", st.crashes)
        .add("backfill_starts", st.backfill_starts)
        .add("busy_core_s", st.busy_core_s)
        .add("makespan_s", st.makespan_s)
        .add("utilization", st.utilization);
    add_samples(d, "queue_wait_s", st.queue_wait_s);
    add_samples(d, "deploy_s", st.deploy_s);
    add_samples(d, "start_latency_s", st.start_latency_s);
    d.add("deploys", st.deploy.deploys)
        .add("upstream_fetches", st.deploy.upstream_fetches)
        .add("conversions", st.deploy.conversions)
        .add("coalesced", st.deploy.coalesced)
        .add("bytes_transferred", st.deploy.bytes_transferred);
    add_cache(d, st.deploy.cache);
    op.digest = it.fingerprint = d.hex();
    it.outputs = {
        {"jobs", static_cast<double>(st.submitted)},
        {"backfill_starts", static_cast<double>(st.backfill_starts)},
        {"deploy.fetches", static_cast<double>(st.deploy.upstream_fetches)},
        {"deploy.hit_ratio", hit_ratio(st.deploy.cache)},
    };
  });
  return it;
}

// -------------------------------------------------------------- gateway

Iteration gateway_iteration(const std::string& workload, std::uint64_t seed,
                            const Variant& v, Tracer& tr, Checks& checks) {
  namespace hg = hpcs::gateway;
  namespace ho = hpcs::obs;
  const bool hedged = workload == "gateway-hedged";
  const bool observed = !hedged && !v.unobserved;
  Iteration it;
  it.cell_seed = seed;
  checked(checks, workload, seed, 0, "cell" + v.tag, [&](CheckedOp& op) {
    Scope iteration(tr, workload + ".iteration");
    const auto t0 = Clock::now();
    hg::GatewayGridSpec grid;
    grid.workload.load = 2.0;
    grid.workload.horizon_s =
        (hedged ? kHedgedHorizonS : kObservedHorizonS) * v.scale;
    hg::WorkloadSpec spec = grid.workload;
    spec.catalog_images = hg::churn_catalog_images(grid, 8.0);
    hg::GatewayConfig config;
    if (hedged) hg::MitigationSpec::preset("hedge+breaker").apply(config);

    const hpcs::sim::Rng root{seed};
    std::optional<hg::ImageCatalog> catalog;
    std::vector<hg::PullRequest> requests;
    const std::shared_ptr<ho::MemorySink> sink =
        observed ? std::make_shared<ho::MemorySink>() : nullptr;
    ho::Collector collector(sink);
    std::optional<hg::GatewayService> service;
    {
      Scope setup(tr, "gateway.setup");
      {
        Scope s(tr, "gateway.ImageCatalog");
        catalog.emplace(spec, root);
      }
      {
        Scope s(tr, "gateway.ArrivalProcess");
        hg::ArrivalProcess arrivals(spec, root);
        while (const auto request = arrivals.next())
          requests.push_back(*request);
      }
      Scope s(tr, "gateway.GatewayService");
      if (observed) collector.enable_timeseries(kTimeseriesWindowS);
      service.emplace(config, hc::RuntimeKind::Docker, *catalog,
                      hpcs::fault::FaultInjector(
                          hpcs::fault::FaultSpec::preset("moderate"), seed),
                      spec.horizon_s, observed ? &collector : nullptr);
    }
    it.setup_s = seconds_since(t0);
    const double heap_before = observed ? heap_mb() : 0.0;

    const auto t1 = Clock::now();
    {
      Scope all(tr, "gateway.submit_all");
      const std::uint32_t submit = tr.enabled() ? tr.intern("gateway.submit")
                                                : 0u;
      for (const hg::PullRequest& request : requests) {
        Scope s(tr, submit);
        service->submit(request);
      }
    }
    hg::GatewayStats st;
    {
      Scope s(tr, "gateway.finish");
      st = service->finish();
    }
    ho::TraceData trace;
    ho::TimeSeries series;
    CountingBuf bytes;
    double heap_after = 0.0;
    if (observed) {
      {
        Scope s(tr, "obs.slo");
        series = collector.timeseries();
        for (const ho::SloReport& report :
             ho::evaluate_slos(series, ho::default_slos(series)))
          ho::emit_slo_alerts(collector, 2 + config.workers, report);
      }
      {
        Scope s(tr, "obs.take");
        trace = sink->take();
      }
      heap_after = heap_mb();
      std::ostream out(&bytes);
      {
        Scope s(tr, "export.trace");
        ho::write_chrome_trace(out, trace, workload);
      }
      {
        Scope s(tr, "export.metrics");
        collector.metrics().write_json(out);
      }
      {
        Scope s(tr, "export.timeseries");
        series.write_csv(out, workload);
      }
    }
    it.host_s = seconds_since(t1);

    const std::uint64_t resolved =
        st.completed + st.failed + st.rejected_queue + st.rejected_admission +
        st.deadline_sheds + st.breaker_fastfail;
    op.require(st.arrivals == requests.size(),
               "arrivals != generated requests");
    op.require(resolved == st.arrivals,
               "request conservation: resolved != arrivals");
    Digest d;
    d.add("arrivals", st.arrivals)
        .add("completed", st.completed)
        .add("failed", st.failed)
        .add("rejected_queue", st.rejected_queue)
        .add("rejected_admission", st.rejected_admission)
        .add("deadline_sheds", st.deadline_sheds)
        .add("breaker_fastfail", st.breaker_fastfail)
        .add("stale_served", st.stale_served)
        .add("coalesced", st.coalesced)
        .add("upstream_fetches", st.upstream_fetches)
        .add("conversions", st.conversions)
        .add("upstream_retries", st.upstream_retries)
        .add("worker_crashes", st.worker_crashes)
        .add("hedged_fetches", st.hedged_fetches)
        .add("hedge_wins", st.hedge_wins)
        .add("breaker_opens", st.breaker_opens)
        .add("hedge_wasted_s", st.hedge_wasted_s)
        .add("wasted_work_s", st.wasted_work_s)
        .add("max_queue_depth", static_cast<std::uint64_t>(st.max_queue_depth))
        .add("max_outstanding", static_cast<std::uint64_t>(st.max_outstanding));
    add_cache(d, st.cache);
    add_samples(d, "start_latency", st.start_latency);
    add_samples(d, "queue_wait", st.queue_wait);
    it.fingerprint = d.hex();
    it.outputs = {
        {"arrivals", static_cast<double>(st.arrivals)},
        {"hedged_fetches", static_cast<double>(st.hedged_fetches)},
        {"hedge_win_ratio", ratio(static_cast<double>(st.hedge_wins),
                                  static_cast<double>(st.hedged_fetches))},
        {"upstream_fetches", static_cast<double>(st.upstream_fetches)},
        {"coalesced", static_cast<double>(st.coalesced)},
        {"cache_hit_ratio", hit_ratio(st.cache)},
    };
    if (observed) {
      std::int64_t lo = 0, hi = -1;
      series.window_span(lo, hi);
      op.require(!trace.spans.empty() && bytes.bytes() > 0,
                 "observed run recorded no trace");
      op.require(hi >= lo, "observed run recorded no time-series window");
      d.add("spans", static_cast<std::uint64_t>(trace.spans.size()))
          .add("instants", static_cast<std::uint64_t>(trace.instants.size()))
          .add("ts_windows", static_cast<std::uint64_t>(hi - lo + 1))
          .add("export_bytes", bytes.bytes());
      it.outputs["obs.spans"] = static_cast<double>(trace.spans.size());
      it.outputs["obs.instants"] = static_cast<double>(trace.instants.size());
      it.outputs["obs.ts_windows"] = static_cast<double>(hi - lo + 1);
      it.outputs["obs.rss_mb"] = heap_after - heap_before;
      it.outputs["export.bytes"] = static_cast<double>(bytes.bytes());
    }
    op.digest = d.hex();
  });
  return it;
}

// --------------------------------------------------------- artery-paper

hs::CampaignSpec fig1(std::uint64_t seed) {
  hs::CampaignSpec spec;
  spec.name = "fig1-lenox-runtimes";
  spec.cluster(hpcs::hw::presets::lenox())
      .variant(hc::RuntimeKind::BareMetal, hc::BuildMode::SystemSpecific,
               "Bare-metal")
      .variant(hc::RuntimeKind::Singularity, hc::BuildMode::SystemSpecific,
               "Singularity")
      .variant(hc::RuntimeKind::Shifter, hc::BuildMode::SystemSpecific,
               "Shifter")
      .variant(hc::RuntimeKind::Docker, hc::BuildMode::SystemSpecific,
               "Docker")
      .nodes({4})
      .geometry(8, 14)
      .geometry(16, 7)
      .geometry(28, 4)
      .geometry(56, 2)
      .geometry(112, 1)
      .steps(10)
      .seed(seed);
  return spec;
}

hs::CampaignSpec fig2(std::uint64_t seed) {
  hs::CampaignSpec spec;
  spec.name = "fig2-ctepower-portability";
  spec.cluster(hpcs::hw::presets::cte_power())
      .variant(hc::RuntimeKind::BareMetal, hc::BuildMode::SystemSpecific,
               "Bare-metal")
      .variant(hc::RuntimeKind::Singularity, hc::BuildMode::SystemSpecific,
               "Singularity system-specific")
      .variant(hc::RuntimeKind::Singularity, hc::BuildMode::SelfContained,
               "Singularity self-contained")
      .nodes({2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
      .steps(10)
      .seed(seed);
  return spec;
}

hs::CampaignSpec fig3(std::uint64_t seed) {
  hs::CampaignSpec spec;
  spec.name = "fig3-mn4-fsi-scalability";
  spec.cluster(hpcs::hw::presets::marenostrum4())
      .variant(hc::RuntimeKind::BareMetal, hc::BuildMode::SystemSpecific,
               "Bare-metal")
      .variant(hc::RuntimeKind::Singularity, hc::BuildMode::SystemSpecific,
               "Singularity system-specific")
      .variant(hc::RuntimeKind::Singularity, hc::BuildMode::SelfContained,
               "Singularity self-contained")
      .app(hs::AppCase::ArteryFsi)
      .nodes({4, 8, 16, 32, 64, 128, 256})
      .steps(5)
      .seed(seed);
  return spec;
}

Iteration artery_iteration(std::uint64_t seed, const Variant& v, Tracer& tr,
                           Checks& checks) {
  const std::string w = "artery-paper";
  Iteration it;
  it.cell_seed = seed;
  Scope iteration(tr, "artery-paper.iteration");
  const auto t0 = Clock::now();
  // Nondimensional artery (R = 1, rho = mu = 1).  The seed draws the
  // driving pressure and the segment length; steady Poiseuille flow then
  // peaks at u_max = dp R^2 / (4 mu L).
  hpcs::sim::Rng rng = hpcs::sim::Rng{seed}.child("artery");
  const double dp = rng.uniform(14.0, 18.0);
  const double length = rng.uniform(3.8, 4.2);
  const double u_max = dp / (4.0 * length);

  ha::FluidParams fluid;
  fluid.density = 1.0;
  fluid.viscosity = 1.0;
  fluid.inlet_pressure = dp;
  fluid.outlet_pressure = 0.0;
  fluid.dt = 5e-3;
  ha::FsiParams fsi;
  fsi.fluid = fluid;
  fsi.solid.youngs_modulus = 1500.0;
  fsi.solid.poisson_ratio = 0.3;

  std::optional<ha::Mesh> lumen, fsi_lumen, wall;
  std::optional<ha::ThreadPool> pool;
  std::optional<ha::NastinSolver> cfd;
  std::optional<ha::FsiDriver> coupled;
  const std::vector<hs::CampaignSpec> campaigns = {fig1(seed), fig2(seed),
                                                   fig3(seed)};
  const hs::CampaignRunner runner(hs::CampaignOptions{.jobs = 1});
  // A set-up failure fails the solves that need it.
  std::string setup_error;
  try {
    Scope setup(tr, "alya.setup");
    {
      Scope s(tr, "alya.lumen_mesh");
      lumen.emplace(ha::lumen_mesh({.radius = 1.0, .length = length,
                                    .cross_cells = 8, .axial_cells = 8}));
      fsi_lumen.emplace(ha::lumen_mesh({.radius = 1.0, .length = length,
                                        .cross_cells = 6, .axial_cells = 8}));
    }
    {
      Scope s(tr, "alya.wall_mesh");
      wall.emplace(ha::wall_mesh({.inner_radius = 1.0,
                                  .thickness = 0.3,
                                  .length = length,
                                  .radial_cells = 2,
                                  .circumferential_cells = 16,
                                  .axial_cells = 8}));
    }
    {
      Scope s(tr, "alya.ThreadPool");
      pool.emplace(v.threads);
    }
    {
      Scope s(tr, "alya.NastinSolver");
      cfd.emplace(*lumen, fluid, &*pool);
    }
    Scope s(tr, "alya.FsiDriver");
    coupled.emplace(*fsi_lumen, *wall, fsi, &*pool);
  } catch (const std::exception& e) {
    setup_error = std::string("set-up: ") + e.what();
  }
  it.setup_s = seconds_since(t0);

  const auto t1 = Clock::now();
  checked(checks, w, seed, v.threads, "cfd" + v.tag, [&](CheckedOp& op) {
    if (!setup_error.empty()) throw std::runtime_error(setup_error);
    {
      Scope all(tr, "alya.cfd");
      const std::uint32_t step = tr.enabled() ? tr.intern("alya.cfd_step")
                                              : 0u;
      for (int s = 0; s < kCfdSteps; ++s) {
        Scope sp(tr, step);
        cfd->step();
      }
    }
    // Steady profile at mid-length against u_max (1 - r^2), away from
    // the no-slip wall; transverse velocity must vanish.
    double max_err = 0.0, max_cross = 0.0;
    int probed = 0;
    const auto& u = cfd->velocity();
    for (ha::Index i = 0; i < lumen->node_count(); ++i) {
      const auto& p = lumen->node(i);
      const double r = std::hypot(p.x, p.y);
      if (std::abs(p.z - 0.5 * length) > 0.3 || r > 0.95) continue;
      const auto& ui = u[static_cast<std::size_t>(i)];
      max_err = std::max(max_err, std::abs(ui.z - u_max * (1.0 - r * r)));
      max_cross = std::max({max_cross, std::abs(ui.x), std::abs(ui.y)});
      ++probed;
    }
    op.require(probed > 20, "too few mid-length nodes probed");
    op.require(max_err < kPoiseuilleTol * u_max,
               "Poiseuille profile error " + std::to_string(max_err / u_max) +
                   " of u_max");
    op.require(max_cross < 0.05 * u_max, "transverse velocity in steady flow");
    const auto& c = cfd->counters();
    Digest d;
    d.add("kinetic_energy", cfd->kinetic_energy())
        .add("flow_rate", cfd->flow_rate())
        .add("max_divergence", cfd->max_divergence())
        .add("pressure_iterations", c.pressure_iterations)
        .add("spmv_calls", c.spmv_calls)
        .add("max_err", max_err);
    op.digest = d.hex();
    it.outputs["cfd.kinetic_energy"] = cfd->kinetic_energy();
    it.outputs["cfd.flow_rate"] = cfd->flow_rate();
  });
  checked(checks, w, seed, v.threads, "fsi" + v.tag, [&](CheckedOp& op) {
    if (!setup_error.empty()) throw std::runtime_error(setup_error);
    bool converged = true;
    double displacement = 0.0;
    {
      Scope all(tr, "alya.fsi");
      const std::uint32_t step = tr.enabled() ? tr.intern("alya.fsi_step")
                                              : 0u;
      for (int s = 0; s < kFsiSteps; ++s) {
        Scope sp(tr, step);
        const ha::FsiStepResult r = coupled->step();
        converged = converged && r.converged;
        displacement = r.mean_radial_displacement;
      }
    }
    op.require(converged, "a coupled step did not converge");
    op.require(std::isfinite(displacement) && displacement > 0.0,
               "the pressurized wall did not dilate");
    const auto& c = coupled->counters();
    Digest d;
    d.add("displacement", displacement)
        .add("coupling_iterations", c.coupling_iterations)
        .add("solid_cg_iterations", c.solid_cg_iterations)
        .add("kinetic_energy", coupled->fluid().kinetic_energy());
    op.digest = d.hex();
    it.outputs["fsi.displacement"] = displacement;
    it.outputs["fsi.kinetic_energy"] = coupled->fluid().kinetic_energy();
  });

  double hits = 0.0, lookups = 0.0, cells = 0.0;
  std::vector<hs::CampaignResult> results;
  {
    Scope all(tr, "core.campaigns");
    for (const hs::CampaignSpec& spec : campaigns)
      checked(checks, w, seed, 0, spec.name.substr(0, 4) + v.tag,
              [&](CheckedOp& op) {
        Scope s(tr, "core.campaign");
        results.push_back(runner.run(spec));
        const hs::CampaignResult& res = results.back();
        op.require(res.failed == 0, "campaign has failed cells");
        op.require(res.succeeded == spec.size(), "campaign lost cells");
        Digest d;
        for (const hs::CampaignCell& cell : res.cells)
          d.add(cell.key, cell.ok ? cell.result.total_time : -1.0)
              .add("energy", cell.ok ? cell.result.energy_j : -1.0);
        op.digest = d.hex();
        hits += static_cast<double>(res.image_cache_hits);
        lookups += static_cast<double>(res.image_cache_hits +
                                       res.image_cache_misses);
        cells += static_cast<double>(res.cells.size());
      });
  }
  // Serial re-runs of every campaign cell through ExperimentRunner, where
  // the cost models run; each must reproduce its campaign cell exactly.
  checked(checks, w, seed, 0, "runner" + v.tag, [&](CheckedOp& op) {
    Scope all(tr, "core.runner");
    const std::uint32_t run = tr.enabled()
                                  ? tr.intern("core.ExperimentRunner.run")
                                  : 0u;
    const hs::ExperimentRunner experiment;
    int mismatches = 0;
    for (const hs::CampaignResult& res : results)
      for (const hs::CampaignCell& cell : res.cells) {
        if (!cell.ok) continue;
        Scope s(tr, run);
        const hs::RunResult r = experiment.run(cell.scenario);
        if (r.total_time != cell.result.total_time) ++mismatches;
      }
    op.require(mismatches == 0, std::to_string(mismatches) +
                                    " cells differ from their campaign run");
  });
  it.host_s = seconds_since(t1);

  if (!setup_error.empty()) return it;
  const auto& fc = cfd->counters();
  const auto& ff = coupled->fluid().counters();
  const auto& sc = coupled->counters();
  it.outputs["cfd_steps"] = kCfdSteps;
  it.outputs["fsi_steps"] = kFsiSteps;
  it.outputs["pressure_cg_iters"] =
      static_cast<double>(fc.pressure_iterations + ff.pressure_iterations);
  it.outputs["solid_cg_iters"] = static_cast<double>(sc.solid_cg_iterations);
  it.outputs["coupling_iters"] = static_cast<double>(sc.coupling_iterations);
  it.outputs["spmv_calls"] =
      static_cast<double>(fc.spmv_calls + ff.spmv_calls);
  it.outputs["solver_flop_per_byte"] =
      ratio(fc.solver_flops, fc.solver_bytes);
  it.outputs["image_cache_hit_ratio"] = ratio(hits, lookups);
  it.outputs["campaign_cells"] = cells;
  return it;
}

// ---------------------------------------------------------------- metrics

std::vector<double> host_times(const Pass& pass) {
  std::vector<double> out;
  for (const Iteration& it : pass.iterations) out.push_back(it.host_s);
  return out;
}

double last_output(const Pass& pass, const std::string& key) {
  if (pass.iterations.empty()) return 0.0;
  const auto& outputs = pass.iterations.back().outputs;
  const auto found = outputs.find(key);
  return found == outputs.end() ? 0.0 : found->second;
}

double median_output(const Pass& pass, const std::string& key) {
  std::vector<double> values;
  for (const Iteration& it : pass.iterations) {
    const auto found = it.outputs.find(key);
    if (found != it.outputs.end()) values.push_back(found->second);
  }
  return median(values);
}

/// True when \p twin's cells are the first cells of \p main, in order.
bool same_cells(const Pass& main, const Pass& twin) {
  if (twin.iterations.size() > main.iterations.size()) return false;
  for (std::size_t i = 0; i < twin.iterations.size(); ++i)
    if (main.iterations[i].cell_seed != twin.iterations[i].cell_seed)
      return false;
  return true;
}

/// log2 of the median run time at full size over the half-size probe's.
double scaling_exp(double full_s, double half_s) {
  return full_s > 0 && half_s > 0 ? std::log2(full_s / half_s) : 0.0;
}

std::vector<Metric> sched_metrics(const Pass& main, const Pass& half) {
  const double run_s = median(main.tracer.durations("sched.run"));
  const double jobs = last_output(main, "jobs");
  return {
      {"sched.run_s", run_s, "s"},
      {"sched.jobs_per_s", ratio(jobs, run_s), "1/s"},
      {"sched.scaling_exp",
       scaling_exp(run_s, median(half.tracer.durations("sched.run"))),
       "log2"},
      {"sched.init_s", median(main.tracer.durations("sched.setup")), "s"},
      {"sched.jobs", jobs, "count"},
      {"sched.backfill_starts", last_output(main, "backfill_starts"),
       "count"},
      {"sched.backfill_ratio",
       ratio(last_output(main, "backfill_starts"), jobs), "ratio"},
      {"sched.deploy.fetches", last_output(main, "deploy.fetches"), "count"},
      {"sched.deploy.hit_ratio", last_output(main, "deploy.hit_ratio"),
       "ratio"},
  };
}

std::vector<Metric> gateway_metrics(const Pass& main) {
  const double submit_s =
      median(main.tracer.child_sums("gateway.submit_all", "gateway.submit"));
  const double finish_s = median(main.tracer.durations("gateway.finish"));
  const std::vector<double> calls = main.tracer.durations("gateway.submit");
  return {
      {"gateway.submit_s", submit_s, "s"},
      {"gateway.finish_s", finish_s, "s"},
      {"gateway.requests_per_s",
       ratio(last_output(main, "arrivals"), submit_s + finish_s), "1/s"},
      {"gateway.submit_p50_us", quantile(calls, 0.5) * 1e6, "us"},
      {"gateway.submit_p99_us", quantile(calls, 0.99) * 1e6, "us"},
      {"gateway.init_s", median(main.tracer.durations("gateway.setup")), "s"},
      {"gateway.hedged_fetches", last_output(main, "hedged_fetches"),
       "count"},
      {"gateway.hedge_win_ratio", last_output(main, "hedge_win_ratio"),
       "ratio"},
      {"gateway.upstream_fetches", last_output(main, "upstream_fetches"),
       "count"},
      {"gateway.coalesced", last_output(main, "coalesced"), "count"},
      {"gateway.cache_hit_ratio", last_output(main, "cache_hit_ratio"),
       "ratio"},
  };
}

std::vector<Metric> observed_metrics(std::uint64_t seed, const Pass& main,
                                     const Pass& twin, Checks& checks) {
  // Observation must not change what the gateway simulates.
  checked(checks, "gateway-observed", seed, 0, "observe-neutral",
          [&](CheckedOp& op) {
            op.require(same_cells(main, twin), "twin ran other cells");
            for (std::size_t i = 0; i < twin.iterations.size(); ++i)
              op.require(main.iterations[i].fingerprint ==
                             twin.iterations[i].fingerprint,
                         "observed and unobserved statistics differ in cell " +
                             std::to_string(twin.iterations[i].cell_seed));
          });
  std::vector<Metric> out = gateway_metrics(main);
  const double observed_submit =
      median(main.tracer.child_sums("gateway.submit_all", "gateway.submit"));
  const double twin_submit =
      median(twin.tracer.child_sums("gateway.submit_all", "gateway.submit"));
  const std::vector<Metric> more = {
      {"obs.record_s", observed_submit - twin_submit, "s"},
      {"obs.overhead_x", ratio(median(host_times(main)),
                               median(host_times(twin))), "x"},
      {"obs.slo_s", median(main.tracer.durations("obs.slo")), "s"},
      {"obs.take_s", median(main.tracer.durations("obs.take")), "s"},
      {"obs.rss_mb", median_output(main, "obs.rss_mb"), "MB"},
      {"obs.spans", last_output(main, "obs.spans"), "count"},
      {"obs.instants", last_output(main, "obs.instants"), "count"},
      {"obs.ts_windows", last_output(main, "obs.ts_windows"), "count"},
      {"export.trace_s", median(main.tracer.durations("export.trace")), "s"},
      {"export.metrics_s", median(main.tracer.durations("export.metrics")),
       "s"},
      {"export.timeseries_s",
       median(main.tracer.durations("export.timeseries")), "s"},
      {"export.bytes", last_output(main, "export.bytes"), "count"},
  };
  out.insert(out.end(), more.begin(), more.end());
  return out;
}

/// Summed alya time (CFD + FSI steps) per iteration.
std::vector<double> alya_times(const Pass& pass) {
  const std::vector<double> cfd = pass.tracer.durations("alya.cfd");
  const std::vector<double> fsi = pass.tracer.durations("alya.fsi");
  std::vector<double> out;
  for (std::size_t i = 0; i < std::min(cfd.size(), fsi.size()); ++i)
    out.push_back(cfd[i] + fsi[i]);
  return out;
}

std::vector<Metric> artery_metrics(std::uint64_t seed, const Pass& main,
                                   const Pass& pooled, Checks& checks) {
  // The pool changes only the order of reductions.
  checked(checks, "artery-paper", seed, 0, "serial-agreement",
          [&](CheckedOp& op) {
    op.require(same_cells(main, pooled), "twin ran other cells");
    for (std::size_t i = 0; i < pooled.iterations.size(); ++i)
      for (const char* key : {"cfd.kinetic_energy", "cfd.flow_rate",
                              "fsi.displacement", "fsi.kinetic_energy"}) {
        const double a = main.iterations[i].outputs.at(key);
        const double b = pooled.iterations[i].outputs.at(key);
        op.require(std::abs(a - b) <= kSerialRelTol * std::abs(a),
                   std::string(key) + " of the pooled pass differs");
      }
  });
  const double alya_s = median(alya_times(main));
  const std::vector<double> cfd_steps = main.tracer.durations("alya.cfd_step");
  const double campaign_s = median(main.tracer.durations("core.campaigns"));
  return {
      {"alya.cfd_step_ms", median(cfd_steps) * 1e3, "ms"},
      {"alya.cfd_step_p99_ms", quantile(cfd_steps, 0.99) * 1e3, "ms"},
      {"alya.fsi_step_ms",
       median(main.tracer.durations("alya.fsi_step")) * 1e3, "ms"},
      {"alya.steps_per_s",
       ratio(last_output(main, "cfd_steps") + last_output(main, "fsi_steps"),
             alya_s),
       "1/s"},
      {"alya.thread_speedup", ratio(alya_s, median(alya_times(pooled))), "x"},
      {"alya.init_s", median(main.tracer.durations("alya.setup")), "s"},
      {"alya.pressure_cg_iters", last_output(main, "pressure_cg_iters"),
       "count"},
      {"alya.solid_cg_iters", last_output(main, "solid_cg_iters"), "count"},
      {"alya.coupling_iters", last_output(main, "coupling_iters"), "count"},
      {"alya.spmv_calls", last_output(main, "spmv_calls"), "count"},
      {"alya.solver_flop_per_byte", last_output(main, "solver_flop_per_byte"),
       "flop/B"},
      {"core.campaign_s", campaign_s, "s"},
      {"core.cells_per_s", ratio(last_output(main, "campaign_cells"),
                                 campaign_s), "1/s"},
      {"core.runner_cell_us",
       median(main.tracer.durations("core.ExperimentRunner.run")) * 1e6,
       "us"},
      {"core.image_cache_hit_ratio",
       last_output(main, "image_cache_hit_ratio"), "ratio"},
  };
}

}  // namespace

int round_cells(const std::string& workload) {
  return workload == "artery-paper" ? 1 : 8;
}

std::uint64_t cell_seed(std::uint64_t seed, int k) {
  return seed * 100 + static_cast<std::uint64_t>(k);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sched-backfill", "gateway-hedged", "gateway-observed", "artery-paper"};
  return names;
}

Iteration run_iteration(const std::string& workload, std::uint64_t cell,
                        const Variant& variant, Tracer& tracer,
                        Checks& checks) {
  if (workload == "sched-backfill")
    return sched_iteration(cell, variant, tracer, checks);
  if (workload == "gateway-hedged" || workload == "gateway-observed")
    return gateway_iteration(workload, cell, variant, tracer, checks);
  if (workload == "artery-paper")
    return artery_iteration(cell, variant, tracer, checks);
  throw std::invalid_argument("unknown workload " + workload);
}

Variant second_variant(const std::string& workload, int threads) {
  if (workload == "gateway-observed")
    return {.unobserved = true, .tag = "-unobserved"};
  if (workload == "artery-paper") return {.threads = threads, .tag = "-pool"};
  return {.scale = 0.5, .tag = "-half"};
}

std::vector<Metric> layer_metrics(const std::string& workload,
                                  std::uint64_t seed, const Pass& main,
                                  const Pass& second, Checks& checks) {
  if (workload == "sched-backfill") return sched_metrics(main, second);
  if (workload == "gateway-observed")
    return observed_metrics(seed, main, second, checks);
  if (workload == "artery-paper")
    return artery_metrics(seed, main, second, checks);
  std::vector<Metric> out = gateway_metrics(main);
  out.push_back({"gateway.scaling_exp",
                 scaling_exp(median(host_times(main)),
                             median(host_times(second))),
                 "log2"});
  return out;
}

}  // namespace e2e
