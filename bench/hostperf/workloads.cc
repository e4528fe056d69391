#include "workloads.h"

#include <algorithm>
#include <memory>

#include "analyze/analyzer.h"
#include "kernels/fs.h"
#include "kernels/gbc.h"
#include "kernels/gps.h"
#include "kernels/hip.h"
#include "kernels/mfp.h"
#include "kernels/registry.h"
#include "kernels/smc.h"
#include "kernels/tms.h"
#include "mem/backend.h"
#include "mem/cache.h"
#include "mem/dram.h"
#include "mem/memsys.h"
#include "obs/artifact.h"
#include "obs/stats_json.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/system.h"
#include "workloads/sparse.h"
#include "workloads/synthetic.h"

namespace glsc {
namespace hostperf {
namespace {

const char *const kKernels[] = {"GBC", "FS", "GPS", "HIP",
                                "SMC", "MFP", "TMS"};

/** Every (kernel, dataset) in registry order, Base then GLSC. */
std::vector<CellSpec>
bothSchemes(const std::vector<int> &datasets, int width)
{
    std::vector<CellSpec> cells;
    for (const char *k : kKernels) {
        for (int ds : datasets) {
            cells.push_back({k, ds, Scheme::Base, width});
            cells.push_back({k, ds, Scheme::Glsc, width});
        }
    }
    return cells;
}

std::vector<WorkloadSpec>
makeSpecs()
{
    // Paper scale on dataset A only: the 14 cells take ~3 s a pass, so
    // a run holds enough passes for a median.
    WorkloadSpec paper;
    paper.name = "paper-4x4";
    paper.scale = 1.0;
    paper.machine = SystemConfig::make(4, 4, 4);
    paper.paperSpeedup = 1.54;
    paper.cells = bothSchemes({0}, 4);

    WorkloadSpec quick;
    quick.name = "quick-1x1-widths";
    quick.scale = 0.03;
    quick.machine = SystemConfig::make(1, 1, 4);
    quick.paperSpeedup = 1.76;
    for (int w : {1, 4, 16}) {
        std::vector<CellSpec> cells = bothSchemes({0, 1}, w);
        quick.cells.insert(quick.cells.end(), cells.begin(), cells.end());
    }

    WorkloadSpec dram;
    dram.name = "dram-weak-observed";
    dram.scale = 0.12;
    dram.machine = SystemConfig::make(4, 4, 4);
    dram.machine.memBackend = MemBackendKind::Dram;
    dram.machine.consistency.mode = ConsistencyMode::Weak;
    dram.machine.noc.protocol = true;
    dram.observed = true;
    dram.paperSpeedup = 1.54;
    dram.cells = bothSchemes({0, 1}, 4);

    return {paper, quick, dram};
}

/**
 * The inputs runBenchmark synthesizes for @p c, made by the same
 * workloads/ generator calls with the same seed mixing.
 */
void
synthesize(const CellSpec &c, double scale, std::uint64_t seed,
           int threads)
{
    auto mix = [seed](std::uint64_t s) { return s * 0x9e3779b9ull + seed; };
    if (c.kernel == "GBC") {
        GbcParams p = gbcDataset(c.dataset, scale);
        makeRunIndices(p.objects, p.cells, p.runProb, mix(p.seed));
    } else if (c.kernel == "FS") {
        FsParams p = fsDataset(c.dataset, scale);
        levelSchedule(
            makeLowerTriangular(p.n, p.density, mix(p.seed), p.bandwidth));
    } else if (c.kernel == "GPS") {
        GpsParams p = gpsDataset(c.dataset, scale);
        ConstraintSet cs =
            makeConstraints(p.objects, p.constraints, 6, mix(p.seed));
        for (int g = 0; g < threads; ++g) {
            auto [b, e] = splitEven(p.constraints, threads, g);
            groupIndependent(cs, b, e, c.width);
        }
    } else if (c.kernel == "HIP") {
        HipParams p = hipDataset(c.dataset, scale);
        makeRunIndices(p.numPixels, p.numBins, p.runProb, mix(p.seed));
    } else if (c.kernel == "SMC") {
        SmcParams p = smcDataset(c.dataset, scale);
        makeParticles(p.particles, p.gx, p.gy, p.gz, p.blobs, mix(p.seed));
    } else if (c.kernel == "MFP") {
        MfpParams p = mfpDataset(c.dataset, scale);
        makeFlowGraph(p.nodes, p.edges, 8, mix(p.seed));
    } else {
        TmsParams p = tmsDataset(c.dataset, scale);
        makeRandomCsr(p.rows, p.cols, p.density, mix(p.seed), 6);
    }
}

SystemConfig
cellConfig(const WorkloadSpec &w, const CellSpec &c)
{
    SystemConfig cfg = w.machine;
    cfg.simdWidth = c.width;
    return cfg;
}

std::string
cellLabel(const CellSpec &c)
{
    return strprintf("%s-%c-%s-w%d", c.kernel.c_str(),
                     c.dataset == 0 ? 'A' : 'B', schemeName(c.scheme),
                     c.width);
}

std::size_t g_probeSink = 0; //!< keeps inline probe loops observable

CellResult
runCell(const WorkloadSpec &w, const CellSpec &c, std::uint64_t seed,
        SpanLog *spans, int parent, ChromeTraceSink *chrome,
        std::vector<Finding> &findings)
{
    int cell = spans ? spans->begin(cellLabel(c), parent) : -1;
    CellResult r;
    double t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0;
    {
        SystemConfig cfg = cellConfig(w, c);
        Tracer tracer;
        CountingSink counts;
        Analyzer analyzer;
        if (w.observed) {
            tracer.addSink(&counts);
            if (chrome)
                tracer.addSink(chrome);
            cfg.tracer = &tracer;
            cfg.analyzer = &analyzer;
        }
        t0 = hostSeconds();
        synthesize(c, w.scale, seed, cfg.totalThreads());
        t1 = hostSeconds();
        auto probe = std::make_unique<System>(cfg);
        t2 = hostSeconds();
        probe.reset();
        t3 = hostSeconds();
        RunResult run = runBenchmark(c.kernel, c.dataset, c.scheme, cfg,
                                     w.scale, seed);
        t4 = hostSeconds();

        std::string broken = run.stats.consistencyError();
        r.ok = run.verified && broken.empty();
        if (!run.verified)
            r.failure = cellLabel(c) + ": verification failed: " +
                        run.detail;
        else if (!broken.empty())
            r.failure = cellLabel(c) + ": stats inconsistent: " + broken;
        r.stats = std::move(run.stats);
        if (w.observed) {
            r.traceEvents = tracer.eventsEmitted();
            r.findings = analyzer.totalFindings();
            const std::vector<Finding> &f = analyzer.findings();
            findings.insert(findings.end(), f.begin(), f.end());
        }
    }
    double t5 = hostSeconds();
    r.synthS = t1 - t0;
    r.constructS = t2 - t1;
    r.runS = t4 - t3;
    if (spans) {
        spans->add("synth", cell, t0, t1);
        spans->add("construct", cell, t1, t2);
        spans->add("teardown", cell, t2, t3);
        spans->add("run", cell, t3, t4);
        spans->add("check", cell, t4, t5);
        spans->end(cell);
    }
    return r;
}

template <typename Fn>
double
nsPerOp(std::uint64_t ops, Fn &&body)
{
    body(ops); // warm-up
    std::vector<double> ns;
    for (int rep = 0; rep < 5; ++rep) {
        double t0 = hostSeconds();
        body(ops);
        ns.push_back((hostSeconds() - t0) * 1e9 / static_cast<double>(ops));
    }
    return median(ns);
}

/** A SystemStats sized for a bare MemorySystem / backend rig. */
SystemStats
rigStats(const SystemConfig &cfg)
{
    SystemStats stats;
    stats.threads.resize(static_cast<std::size_t>(cfg.totalThreads()));
    return stats;
}

double
backendNs(MemBackend &b)
{
    Tick now = 0;
    b.setCallback([&now](const MemResp &r) { now = r.completeTick; });
    return nsPerOp(200000, [&](std::uint64_t ops) {
        for (std::uint64_t i = 0; i < ops; ++i) {
            MemReq req;
            req.line = ((i * 37) % 65536) * kLineBytes;
            req.core = 0;
            req.tid = 0;
            req.arrival = now + 1;
            b.send(req);
            b.drain();
        }
    });
}

Task<void>
gsuKernel(SimThread &t, Addr base, int iterations)
{
    VecReg idx;
    for (int l = 0; l < t.width(); ++l)
        idx[l] = static_cast<std::uint64_t>(l) * (kLineBytes / 4);
    Mask m = Mask::allOnes(t.width());
    for (int i = 0; i < iterations; ++i)
        co_await t.vgather(base, idx, m, 4);
}

double
gsuLineRequestNs()
{
    std::vector<double> ns;
    for (int rep = 0; rep < 6; ++rep) {
        System sys(SystemConfig::make(1, 1, kMaxSimdWidth));
        Addr base = sys.layout().alloc(kMaxSimdWidth * kLineBytes);
        sys.spawn(0, [base](SimThread &t) {
            return gsuKernel(t, base, 4000);
        });
        double t0 = hostSeconds();
        SystemStats s = sys.run();
        double dt = hostSeconds() - t0;
        if (rep > 0) // first repeat warms up
            ns.push_back(dt * 1e9 /
                         static_cast<double>(s.gsuCacheRequests));
    }
    return median(ns);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = makeSpecs();
    return specs;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadSpec &w : workloadSpecs())
        names.push_back(w.name);
    return names;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : workloadSpecs()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

double
PassResult::total(double CellResult::*field) const
{
    double s = 0.0;
    for (const CellResult &c : cells)
        s += c.*field;
    return s;
}

std::uint64_t
PassResult::cycles() const
{
    std::uint64_t n = 0;
    for (const CellResult &c : cells)
        n += c.stats.cycles;
    return n;
}

std::uint64_t
PassResult::instructions() const
{
    std::uint64_t n = 0;
    for (const CellResult &c : cells)
        n += c.stats.totalInstructions();
    return n;
}

std::uint64_t
PassResult::failed() const
{
    std::uint64_t n = 0;
    for (const CellResult &c : cells)
        n += c.ok ? 0 : 1;
    return n;
}

std::string
PassResult::fingerprint() const
{
    std::string out;
    for (const CellResult &c : cells) {
        out += statsToJson(c.stats);
        out += strprintf("events=%llu findings=%llu\n",
                         (unsigned long long)c.traceEvents,
                         (unsigned long long)c.findings);
    }
    return out;
}

PassResult
runPass(const WorkloadSpec &w, std::uint64_t seed, const std::string &outDir,
        SpanLog *spans)
{
    PassResult p;
    double start = hostSeconds();
    int root = spans ? spans->begin(w.name, -1) : -1;
    ChromeTraceSink chrome;
    std::vector<Finding> findings;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        p.cells.push_back(runCell(w, w.cells[i], seed, spans, root,
                                  i == 0 ? &chrome : nullptr, findings));
    }

    double a0 = hostSeconds();
    BenchDoc doc;
    doc.artifact = "hostperf-" + w.name;
    doc.scale = w.scale;
    doc.seed = seed;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        const CellSpec &c = w.cells[i];
        doc.runs.push_back({c.kernel, c.dataset, schemeName(c.scheme),
                            cellConfig(w, c).label(), p.cells[i].stats});
    }
    std::string prefix = outDir + "/" + w.name;
    bool ok = atomicWriteFile(prefix + ".bench.json", benchDocToJson(doc));
    if (w.observed) {
        ok = ok && atomicWriteFile(prefix + ".trace.json", chrome.json());
        ok = ok && atomicWriteFile(prefix + ".findings.json",
                                   findingsToJson(findings));
    }
    double a1 = hostSeconds();
    if (!ok)
        GLSC_FATAL("cannot write artifacts under %s", outDir.c_str());
    if (spans) {
        spans->add("artifact-write", root, a0, a1);
        spans->end(root);
    }
    p.artifactS = a1 - a0;
    p.wallS = hostSeconds() - start;
    return p;
}

PassResult
fastestCells(const std::vector<PassResult> &passes)
{
    PassResult best = passes.front();
    for (const PassResult &p : passes) {
        for (std::size_t i = 0; i < best.cells.size(); ++i) {
            CellResult &b = best.cells[i];
            const CellResult &c = p.cells[i];
            b.synthS = std::min(b.synthS, c.synthS);
            b.constructS = std::min(b.constructS, c.constructS);
            b.runS = std::min(b.runS, c.runS);
        }
        best.artifactS = std::min(best.artifactS, p.artifactS);
        best.wallS = std::min(best.wallS, p.wallS);
    }
    return best;
}

std::vector<Metric>
layerProbes()
{
    std::vector<Metric> out;
    auto add = [&out](const char *name, double ns) {
        out.push_back({name, "ns", ns});
    };

    {
        EventQueue q;
        std::uint64_t sink = 0;
        add("sim.event_ns", nsPerOp(400000, [&](std::uint64_t ops) {
                for (std::uint64_t i = 0; i < ops; ++i) {
                    q.scheduleIn(1, [&sink] { sink++; });
                    q.setNow(q.now() + 1);
                    q.runDue();
                }
            }));
        g_probeSink += sink;
    }
    add("core.gsu_line_request_ns", gsuLineRequestNs());
    {
        L1Cache cache(32 * 1024, 4);
        for (Addr line = 0; line < 128 * kLineBytes; line += kLineBytes)
            cache.fill(cache.victim(line), line, L1State::Shared, line);
        std::size_t hits = 0;
        add("mem.l1_lookup_ns", nsPerOp(4000000, [&](std::uint64_t ops) {
                Addr a = 0;
                for (std::uint64_t i = 0; i < ops; ++i) {
                    hits += cache.lookup(a) != nullptr;
                    a = (a + kLineBytes) & (128 * kLineBytes - 1);
                }
            }));
        g_probeSink += hits;
    }
    {
        SystemConfig cfg = SystemConfig::make(4, 4, 4);
        EventQueue events;
        Memory mem;
        SystemStats stats = rigStats(cfg);
        MemorySystem msys(cfg, events, mem, stats);
        msys.access(0, 0, 0x1000, 4, MemOpType::Load);
        events.setNow(1000);
        add("mem.access_hit_ns", nsPerOp(1000000, [&](std::uint64_t ops) {
                for (std::uint64_t i = 0; i < ops; ++i)
                    msys.access(0, 0, 0x1000, 4, MemOpType::Load);
            }));
    }
    {
        SystemConfig cfg = SystemConfig::make(4, 4, 4);
        EventQueue events;
        Memory mem;
        SystemStats stats = rigStats(cfg);
        MemorySystem msys(cfg, events, mem, stats);
        CoreId c = 0;
        add("mem.access_pingpong_ns",
            nsPerOp(300000, [&](std::uint64_t ops) {
                for (std::uint64_t i = 0; i < ops; ++i) {
                    msys.access(c, 0, 0x2000, 4, MemOpType::Store, i);
                    c = (c + 1) % 4;
                    events.setNow(events.now() + 64);
                }
            }));
    }
    {
        SystemConfig cfg;
        SystemStats stats = rigStats(cfg);
        FixedLatencyBackend fixed(cfg.fixedMem, stats);
        add("mem.backend_fixed_ns", backendNs(fixed));
    }
    {
        SystemConfig cfg;
        SystemStats stats = rigStats(cfg);
        BankedDramBackend dram(cfg.dram, stats);
        add("mem.backend_dram_ns", backendNs(dram));
    }
    return out;
}

std::vector<Metric>
modelMetrics(const WorkloadSpec &w, const PassResult &p)
{
    // Pair each cell with its Base/GLSC twin and its width-1 GLSC twin.
    auto find = [&](const CellSpec &like, Scheme s, int width) {
        for (std::size_t i = 0; i < w.cells.size(); ++i) {
            const CellSpec &c = w.cells[i];
            if (c.kernel == like.kernel && c.dataset == like.dataset &&
                c.scheme == s && c.width == width)
                return &p.cells[i].stats;
        }
        return static_cast<const SystemStats *>(nullptr);
    };
    double speedup = 0, instrRed = 0, fails = 0, attempts = 0;
    double eff4 = 0, eff16 = 0;
    int pairs = 0, n4 = 0, n16 = 0;
    for (const CellSpec &c : w.cells) {
        if (c.scheme != Scheme::Glsc)
            continue;
        const SystemStats *glsc = find(c, Scheme::Glsc, c.width);
        const SystemStats *w1 = find(c, Scheme::Glsc, 1);
        if (c.width == 4) {
            const SystemStats *base = find(c, Scheme::Base, 4);
            speedup += ratio(double(base->cycles), double(glsc->cycles));
            instrRed += 1.0 - ratio(double(glsc->totalInstructions()),
                                    double(base->totalInstructions()));
            fails += double(glsc->glscLaneFailures());
            attempts += double(glsc->glscLaneAttempts);
            pairs++;
            if (w1) {
                eff4 += ratio(double(w1->cycles), double(glsc->cycles));
                n4++;
            }
        } else if (c.width == 16 && w1) {
            eff16 += ratio(double(w1->cycles), double(glsc->cycles));
            n16++;
        }
    }
    speedup = ratio(speedup, pairs);
    instrRed = ratio(instrRed, pairs);
    eff4 = ratio(eff4, n4);
    eff16 = ratio(eff16, n16);
    // Relative error against the paper; 0 where not measured here.
    auto err = [](double v, double paper) {
        return v > 0.0 ? v / paper - 1.0 : 0.0;
    };
    return {
        {"model.glsc_speedup", "x", speedup},
        {"model.glsc_speedup_err", "fraction", err(speedup, w.paperSpeedup)},
        {"model.instr_reduction", "fraction", instrRed},
        {"model.instr_reduction_err", "fraction", err(instrRed, 0.338)},
        {"model.glsc_fail_frac", "fraction", ratio(fails, attempts)},
        {"model.simd_eff_4w", "x", eff4},
        {"model.simd_eff_4w_err", "fraction", err(eff4, 2.6)},
        {"model.simd_eff_16w", "x", eff16},
        {"model.simd_eff_16w_err", "fraction", err(eff16, 5.0)},
    };
}

std::vector<Metric>
countMetrics(const PassResult &p)
{
    SystemStats t; // field-wise totals over the pass
    std::uint64_t instr = 0, stall = 0, sync = 0, glscFails = 0;
    std::uint64_t events = 0, findings = 0;
    for (const CellResult &c : p.cells) {
        const SystemStats &s = c.stats;
        t.cycles += s.cycles;
        t.l1Accesses += s.l1Accesses;
        t.l1Misses += s.l1Misses;
        t.l1AtomicAccesses += s.l1AtomicAccesses;
        t.l1AccessesCombined += s.l1AccessesCombined;
        t.l2Accesses += s.l2Accesses;
        t.l2Misses += s.l2Misses;
        t.invalidationsSent += s.invalidationsSent;
        t.memReads += s.memReads;
        t.dramRowHits += s.dramRowHits;
        t.dramRowMisses += s.dramRowMisses;
        t.dramRowConflicts += s.dramRowConflicts;
        t.dramQueueWaitCycles += s.dramQueueWaitCycles;
        t.gsuCacheRequests += s.gsuCacheRequests;
        t.gsuConflictStallCycles += s.gsuConflictStallCycles;
        t.glscLaneAttempts += s.glscLaneAttempts;
        t.scAttempts += s.scAttempts;
        t.scFailures += s.scFailures;
        t.nocMessagesSent += s.nocMessagesSent;
        t.nocNacks += s.nocNacks;
        glscFails += s.glscLaneFailures();
        instr += s.totalInstructions();
        stall += s.totalMemStallCycles();
        sync += s.totalSyncCycles();
        events += c.traceEvents;
        findings += c.findings;
    }
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"sim.cycles", "cycles", d(t.cycles)},
        {"cpu.instructions", "count", d(instr)},
        {"cpu.mem_stall_cycles", "cycles", d(stall)},
        {"cpu.sync_cycles", "cycles", d(sync)},
        {"mem.l1_accesses", "count", d(t.l1Accesses)},
        {"mem.l1_miss_frac", "fraction",
         ratio(d(t.l1Misses), d(t.l1Accesses))},
        {"mem.l2_accesses", "count", d(t.l2Accesses)},
        {"mem.l2_miss_frac", "fraction",
         ratio(d(t.l2Misses), d(t.l2Accesses))},
        {"mem.invalidations", "count", d(t.invalidationsSent)},
        {"mem.mem_reads", "count", d(t.memReads)},
        {"mem.dram_row_hit_frac", "fraction",
         ratio(d(t.dramRowHits), d(t.dramIssued()))},
        {"mem.dram_queue_wait_cycles", "cycles", d(t.dramQueueWaitCycles)},
        {"core.gsu_cache_requests", "count", d(t.gsuCacheRequests)},
        {"core.gsu_conflict_stall_cycles", "cycles",
         d(t.gsuConflictStallCycles)},
        {"core.l1_combined_frac", "fraction",
         ratio(d(t.l1AccessesCombined),
               d(t.l1AccessesCombined + t.l1AtomicAccesses))},
        {"core.glsc_lane_success_frac", "fraction",
         1.0 - ratio(d(glscFails), d(t.glscLaneAttempts))},
        {"core.sc_success_frac", "fraction",
         1.0 - ratio(d(t.scFailures), d(t.scAttempts))},
        {"noc.messages", "count", d(t.nocMessagesSent)},
        {"noc.nacks", "count", d(t.nocNacks)},
        {"obs.trace_events", "count", d(events)},
        {"analyze.findings", "count", d(findings)},
    };
}

} // namespace hostperf
} // namespace glsc
