#include "scrub/cell_backend.hh"

#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/thread_pool.hh"
#include "ecc/bch.hh"
#include "ecc/interleaved.hh"
#include "ecc/secded.hh"
#include "faults/fault_injector.hh"

namespace pcmscrub {

std::unique_ptr<Code>
CellBackend::buildCode(const EccScheme &scheme)
{
    if (scheme.kind() == EccKind::SecdedInterleaved) {
        return std::make_unique<InterleavedCode>(
            std::make_unique<SecdedCode>(64), 8);
    }
    return std::make_unique<BchCode>(512, scheme.guaranteedT());
}

CellBackend::CellBackend(const CellBackendConfig &config)
    : ShardedBackend(config.lines, config.shards, config.seed,
                     config.device, config.degradation),
      config_(config),
      scheme_(config.scheme),
      drift_(config.device),
      code_(buildCode(config.scheme)),
      detector_(makeDetector(config.detectorKind,
                             code_->codewordBits(),
                             config.detectorParity, bitsPerCell)),
      array_(config.lines, code_->codewordBits(), config.device,
             config.seed),
      visits_(plan_.count()),
      wear_(config.device)
{
    lazy_.resize(config.lines);
    calendars_.resize(plan_.count());
    if (config.ecpEntries > 0) {
        ecp_.assign(config.lines,
                    EcpStore(code_->codewordBits(),
                             config.ecpEntries));
    }

    // Warm up: every line holds an encoded random payload. Each line
    // draws its payload and program noise from its own counter-based
    // stream (ids offset past the array's (1 << 32) + line write
    // streams), so the result is bit-identical at any thread count,
    // and the batched warm kernel writes the quantized planes
    // directly — construction is the 10^7-line benchmark's dominant
    // cost, so it gets its own draw discipline instead of the generic
    // program path.
    detectWords_.resize(config.lines);
    ThreadPool::global().run(config.lines, [&](std::size_t i) {
        Random rng = Random::stream(config.seed, (2ULL << 32) + i);
        BitVector data(code_->dataBits());
        data.randomize(rng);
        const BitVector word = code_->encode(data);
        array_.line(i).warmWriteCodeword(word, array_.model(), rng);
        detectWords_[i] = detector_->compute(word);
    });

    // Eager so the (const) lazy-eligibility path never initializes
    // shared state under the parallel sweep — but size-gated: the
    // ~4 MiB memo table must not dominate a small array's footprint,
    // so it is only built when the planes it accelerates are at
    // least as large. Below the gate the lazy path runs the
    // model-direct scalar scan, which the LUT memoizes exactly, so
    // results are bit-identical either way.
    if (config.lazyDrift &&
        array_.storage().bytes() >=
            kernels::DriftCrossLut::footprintBytes())
        driftLut_.init(config.device, array_.storage().spec());
}

std::uint64_t
CellBackend::lineCount() const
{
    return array_.lineCount();
}

unsigned
CellBackend::cellsPerLine() const
{
    // The nominal MLC width, not line 0's live cell count: when line 0
    // drops to SLC its count doubles, and that must not change every
    // line's read energy or the adaptive policy's horizons from then
    // on — nor be read by other shards while line 0's owner shard is
    // demoting it.
    return static_cast<unsigned>(
        (code_->codewordBits() + bitsPerCell - 1) / bitsPerCell);
}

BitVector
CellBackend::senseRaw(LineIndex line, Tick now) const
{
    BitVector word = array_.line(line).readCodeword(now,
                                                    array_.model());
    if (!ecp_.empty())
        ecp_[line].apply(word);
    return word;
}

const BitVector &
CellBackend::readLine(LineIndex line, Tick now)
{
    VisitBuffer &visit = visits_[shardOf(line)];
    chargeArrayRead(line, now);
    // Buffer the sensed word per (line, tick): injected transient
    // flips must look identical to every gate of the same visit.
    if (visit.line != line || visit.tick != now) {
        visit.line = line;
        visit.tick = now;
        if (lazyVisitClean(line, now)) {
            // The line provably still senses its intended codeword,
            // so skip the per-cell physics and hand back the stored
            // word. corruptWord would be a no-op here (the fast path
            // is off whenever read faults are live) and draws no RNG
            // at zero rates, so the buffer bytes and random streams
            // match the exact path exactly.
            array_.line(line).copyIntendedWord(visit.word);
        } else {
            visit.word = senseRaw(line, now);
            if (injector_ != nullptr)
                injector_->corruptWord(visit.word, shardOf(line));
        }
    }
    return visit.word;
}

bool
CellBackend::fastPathOn() const
{
    return config_.lazyDrift &&
        (injector_ == nullptr || !injector_->corruptsReads());
}

LazyLineState
CellBackend::computeLazyLine(LineIndex line) const
{
    LazyLineState state;
    const Line &physical = array_.line(line);
    if (physical.slcMode() || ecpUsed(line) > 0)
        return state;
    // The cell scan — no cell stuck, every cell on its intended
    // symbol at write time, earliest band crossing — is the batched
    // kernel; a non-SLC line's active planes are the array home
    // storage, so its intended words sit in the array plane. Small
    // arrays whose size gate skipped the LUT build take the
    // model-direct scan instead (bit-identical).
    const kernels::LazyLineResult crossing = driftLut_.initialized()
        ? kernels::computeLazyLine(
              physical.span(), array_.storage().intendedWords(line),
              physical.lastWriteTick(), config_.device, driftLut_)
        : kernels::computeLazyLineModel(array_.storage(), line,
                                        array_.model());
    if (!crossing.eligible)
        return state;
    // The gates assume the intended word light-detects and decodes
    // clean; both hold exactly when it is a true codeword. Raw-span
    // check: the intended words already sit in the array plane.
    if (!code_->checkWords(array_.storage().intendedWords(line),
                           code_->codewordBits()))
        return state;
    state.eligible = true;
    state.cleanUntil = crossing.cleanUntil;
    return state;
}

void
CellBackend::updateLazyLine(LineIndex line)
{
    if (!config_.lazyDrift)
        return;
    DriftCalendar &calendar = calendars_[shardOf(line)];
    if (!calendar.validFor(lazyEpoch_))
        return; // Stale shard: the next visit rebuilds it wholesale.
    calendar.remove(lazy_[line]);
    lazy_[line] = computeLazyLine(line);
    calendar.add(lazy_[line]);
}

void
CellBackend::refreshLazyShard(std::size_t shard)
{
    DriftCalendar &calendar = calendars_[shard];
    calendar.reset(lazyEpoch_);
    const ShardRange range = plan_.range(shard);
    // One batched pass over the shard's contiguous planes; the
    // per-line gates (SLC fallback, ECP, ECC check) then veto. An
    // SLC line's array-home planes are stale, but its result is
    // discarded, so the wasted scan is harmless and rare.
    const std::size_t count = range.end - range.begin;
    std::vector<kernels::LazyLineResult> crossings(count);
    if (driftLut_.initialized()) {
        kernels::computeLazyLines(array_.storage(), range.begin,
                                  count, config_.device, driftLut_,
                                  crossings.data());
    } else {
        // Size-gated small array: no LUT was built, so scan with
        // the model directly (bit-identical, and cheap at the line
        // counts the gate admits).
        for (std::size_t k = 0; k < count; ++k)
            crossings[k] = kernels::computeLazyLineModel(
                array_.storage(), range.begin + k, array_.model());
    }
    // The ECC gate runs as one batched syndrome pass over every
    // candidate that survived the cheap gates: the code's tables
    // stay hot across the queued spans instead of being re-walked
    // per line, and no per-line BitVector is materialised.
    std::vector<LineIndex> queued;
    std::vector<const std::uint64_t *> spans;
    for (LineIndex line = range.begin; line < range.end; ++line) {
        const kernels::LazyLineResult &crossing =
            crossings[line - range.begin];
        if (crossing.eligible && !array_.line(line).slcMode() &&
            ecpUsed(line) == 0) {
            queued.push_back(line);
            spans.push_back(array_.storage().intendedWords(line));
        }
    }
    std::vector<std::uint8_t> clean(queued.size());
    if (!queued.empty())
        code_->checkSpans(spans.data(), spans.size(), clean.data());
    std::size_t next = 0;
    for (LineIndex line = range.begin; line < range.end; ++line) {
        LazyLineState state;
        if (next < queued.size() && queued[next] == line) {
            if (clean[next]) {
                state.eligible = true;
                state.cleanUntil =
                    crossings[line - range.begin].cleanUntil;
            }
            ++next;
        }
        lazy_[line] = state;
        calendar.add(state);
    }
}

bool
CellBackend::lazyVisitClean(LineIndex line, Tick now)
{
    if (!fastPathOn())
        return false;
    const std::size_t shard = shardOf(line);
    DriftCalendar &calendar = calendars_[shard];
    if (!calendar.validFor(lazyEpoch_))
        refreshLazyShard(shard);
    if (calendar.allCleanAt(now))
        return true;
    const LazyLineState &state = lazy_[line];
    return state.eligible && now <= state.cleanUntil;
}

void
CellBackend::rebuildEcp(LineIndex line, const BitVector &written)
{
    if (ecp_.empty())
        return;
    // Write-verify knows exactly which cells refused the new data;
    // point ECP entries at the conflicting bits. Entries are
    // re-derived per write (the replacement bits are data).
    EcpStore &store = ecp_[line];
    store.clear();
    const Line &physical = array_.line(line);
    if (physical.slcMode()) {
        // One bit per cell; a stuck cell holds the bit of whichever
        // extreme its frozen level is closer to.
        for (unsigned i = 0; i < physical.cellCount(); ++i) {
            const auto cell = physical.cell(i);
            if (!cell.stuck || i >= written.size())
                continue;
            const bool stuckBit = cell.stuckLevel >= mlcLevels / 2;
            const bool wantBit = written.get(i);
            if (stuckBit != wantBit && !store.assign(i, wantBit))
                return;
        }
        return;
    }
    for (unsigned i = 0; i < physical.cellCount(); ++i) {
        const auto cell = physical.cell(i);
        if (!cell.stuck)
            continue;
        const std::uint8_t gray = levelToGray(cell.stuckLevel);
        for (unsigned b = 0; b < bitsPerCell; ++b) {
            const std::size_t bit =
                static_cast<std::size_t>(i) * bitsPerCell + b;
            if (bit >= written.size())
                break;
            const bool stuckBit = (gray >> b) & 1;
            const bool wantBit = written.get(bit);
            if (stuckBit != wantBit && !store.assign(bit, wantBit))
                return; // Exhausted: remaining conflicts stay raw.
        }
    }
}

void
CellBackend::programLine(LineIndex line, const BitVector &word,
                         Tick now, bool scrub_energy)
{
    ShardCore &shard = coreFor(line);
    Line &physical = array_.line(line);
    const LineProgramStats stats = physical.writeCodeword(
        word, now, array_.model(), shard.rng);
    if (scrub_energy) {
        const double pj = energy_.lineWrite(stats.totalIterations);
        shard.metrics.energy.add(EnergyCategory::ArrayWrite, pj);
        if (telemetry_ != nullptr)
            telemetry_->onEnergy(shardOf(line), line, pj);
    }
    shard.metrics.cellsWornOut += stats.cellsWornOut;
    // Injected wear-correlated hard faults strike at program time,
    // before write-verify: rebuildEcp below then discovers them the
    // same way it discovers organic endurance failures.
    if (injector_ != nullptr) {
        const std::size_t shardId = shardOf(line);
        const unsigned frozen = injector_->sampleStuckCells(
            1.0, wear_.failureCdf(
                     static_cast<double>(physical.lineWrites())),
            shardId);
        if (frozen > 0)
            injector_->freezeCells(physical, frozen, shardId);
    }
    detectWords_[line] = detector_->compute(word);
    rebuildEcp(line, word);
    // The visit buffer and the read-charge dedup are both stale the
    // moment the cells change: a re-read after a mid-visit reprogram
    // is a fresh sensing pass and must charge again even at the same
    // tick.
    visits_[shardOf(line)].line = ~LineIndex{0};
    forgetArrayRead(line);
    updateLazyLine(line);
}

unsigned
CellBackend::ecpUsed(LineIndex line) const
{
    return ecp_.empty() ? 0 : ecp_[line].used();
}

Tick
CellBackend::lastFullWrite(LineIndex line, Tick now)
{
    Tick tick = array_.line(line).lastWriteTick();
    // A corrupted metadata entry feeds the policy a bogus drift age;
    // the physical line is untouched.
    if (injector_ != nullptr)
        injector_->corruptLastWrite(tick, now, shardOf(line));
    return tick;
}

bool
CellBackend::lightDetectClean(LineIndex line, Tick now)
{
    // Resolve the fast path before sensing so a provably-clean line
    // skips the detector compute too; the energy and counters below
    // are charged identically either way.
    const bool lazyClean = lazyVisitClean(line, now);
    const BitVector &read = readLine(line, now);
    ScrubMetrics &metrics = metricsFor(line);
    metrics.energy.add(EnergyCategory::Detect, energy_.lightDetect());
    ++metrics.lightDetects;
    if (lazyClean) {
        // read == intended, so the detect words match by
        // construction and there is no miss to count.
        return true;
    }
    const bool clean = detector_->compute(read) == detectWords_[line];
    if (clean &&
        read != array_.line(line).intendedWord()) {
        ++metrics.detectorMisses;
    }
    return clean;
}

bool
CellBackend::eccCheckClean(LineIndex line, Tick now)
{
    const bool lazyClean = lazyVisitClean(line, now);
    const BitVector &read = readLine(line, now);
    ScrubMetrics &metrics = metricsFor(line);
    metrics.energy.add(EnergyCategory::Decode,
                       scheme_.checkEnergy(config_.device));
    ++metrics.eccChecks;
    if (lazyClean) {
        // Eligibility verified check(intended) at update time.
        return true;
    }
    return code_->check(read);
}

FullDecodeOutcome
CellBackend::fullDecode(LineIndex line, Tick now)
{
    const bool lazyClean = lazyVisitClean(line, now);
    BitVector word = readLine(line, now);
    ScrubMetrics &metrics = metricsFor(line);
    metrics.energy.add(EnergyCategory::Decode,
                       scheme_.fullDecodeEnergy(config_.device));
    ++metrics.fullDecodes;
    if (lazyClean) {
        // Zero syndromes by construction: the exact path would take
        // the Clean branch and draw no RNG, so returning the default
        // outcome here is bit-identical.
        return FullDecodeOutcome{};
    }

    const DecodeResult result = code_->decode(word);
    FullDecodeOutcome outcome;
    switch (result.status) {
      case DecodeStatus::Clean:
        break;
      case DecodeStatus::Corrected:
        outcome.errors = result.correctedBits;
        if (word != array_.line(line).intendedWord()) {
            // Decoder landed on the wrong codeword: silent data
            // corruption the scrub cannot see (ground truth can).
            ++metrics.miscorrections;
        } else if (injector_ != nullptr &&
                   injector_->sampleMiscorrection(shardOf(line))) {
            // Injected decoder fault: the hardware reported a clean
            // correction but actually settled on a wrong codeword.
            ++metrics.miscorrections;
        }
        break;
      case DecodeStatus::Uncorrectable:
        return settleUncorrectable(line, now, trueErrors(line, now));
    }
    return outcome;
}

bool
CellBackend::decodes(LineIndex line, Tick now)
{
    BitVector word = senseRaw(line, now);
    return code_->decode(word).status != DecodeStatus::Uncorrectable;
}

bool
CellBackend::retryRead(LineIndex line, Tick now, unsigned attempt)
{
    Line &physical = array_.line(line);
    BitVector word = physical.readCodeword(
        now, array_.model(),
        config_.degradation.retryMarginWiden * attempt);
    if (!ecp_.empty())
        ecp_[line].apply(word);
    if (code_->decode(word).status == DecodeStatus::Uncorrectable)
        return false;
    if (word != physical.intendedWord()) {
        // The retry "recovered" a wrong codeword; from here on the
        // controller faithfully preserves bad data.
        ++metricsFor(line).miscorrections;
    }
    // Refresh with the recovered word (decode corrected it in place);
    // this is ladder-internal, not a scrub rewrite.
    programLine(line, word, now);
    return true;
}

bool
CellBackend::relearnEcp(LineIndex line, Tick now)
{
    if (ecp_.empty())
        return false;
    programLine(line, array_.line(line).intendedWord(), now);
    return decodes(line, now);
}

void
CellBackend::moveToFreshSilicon(LineIndex line, Tick now)
{
    Line &physical = array_.line(line);
    physical.initialize(array_.model(), rngFor(line));
    programLine(line, physical.intendedWord(), now);
}

bool
CellBackend::demoteSlc(LineIndex line, Tick now)
{
    Line &physical = array_.line(line);
    physical.setSlcMode(array_.model(), rngFor(line));
    programLine(line, physical.intendedWord(), now);
    return decodes(line, now);
}

unsigned
CellBackend::marginScan(LineIndex line, Tick now)
{
    readLine(line, now); // Margin read includes the sensing pass.
    ScrubMetrics &metrics = metricsFor(line);
    metrics.energy.add(EnergyCategory::MarginRead,
                       energy_.marginReadExtra(cellsPerLine()));
    ++metrics.marginScans;
    return array_.line(line).marginScanCount(now, array_.model());
}

void
CellBackend::scrubRewrite(LineIndex line, Tick now, bool preventive)
{
    const unsigned before = trueErrors(line, now);
    programLine(line, array_.line(line).intendedWord(), now);
    const unsigned after = trueErrors(line, now);
    ScrubMetrics &metrics = metricsFor(line);
    ++metrics.scrubRewrites;
    if (preventive)
        ++metrics.preventiveRewrites;
    const std::uint64_t corrected = before > after ? before - after : 0;
    metrics.correctedErrors += corrected;
    if (telemetry_ != nullptr) {
        // Write energy already flowed through programLine's hook.
        telemetry_->onScrubWrite(shardOf(line), line, corrected, 0.0);
    }
}

void
CellBackend::repairUncorrectable(LineIndex line, Tick now)
{
    programLine(line, array_.line(line).intendedWord(), now);
    // Remap still-conflicting stuck cells to spares; the stale ECP
    // entries are then unnecessary (and would mis-patch).
    array_.line(line).remapStuckToIntended();
    if (!ecp_.empty())
        ecp_[line].clear();
    // The remap and ECP clear happen after programLine's own lazy
    // update and change the eligibility inputs; recompute.
    updateLazyLine(line);
}

void
CellBackend::demandWrite(LineIndex line, Tick now)
{
    BitVector data(code_->dataBits());
    data.randomize(rngFor(line));
    programLine(line, code_->encode(data), now,
                /*scrub_energy=*/false);
    ++metricsFor(line).demandWrites;
}

unsigned
CellBackend::trueErrors(LineIndex line, Tick now) const
{
    // Ground truth as the controller would see it: after ECP
    // patching, before ECC.
    const BitVector read = senseRaw(line, now);
    return static_cast<unsigned>(
        read.countDifferences(array_.line(line).intendedWord()));
}

void
CellBackend::checkpointSave(SnapshotSink &sink) const
{
    array_.saveState(sink);

    sink.u64(ecp_.size());
    for (const auto &store : ecp_)
        store.saveState(sink);

    saveShardedState(sink);
}

void
CellBackend::saveShardExtras(SnapshotSink &sink, std::size_t shard) const
{
    const VisitBuffer &visit = visits_[shard];
    sink.bits(visit.word);
    sink.u64(visit.line);
    sink.u64(visit.tick);
}

void
CellBackend::checkpointLoad(SnapshotSource &source)
{
    array_.loadState(source);

    if (source.u64() != ecp_.size())
        source.corrupt("ECP store count does not match the config");
    for (auto &store : ecp_)
        store.loadState(source);

    loadShardedState(source);

    // Detector reference words are a pure function of the intended
    // codewords, so recompute rather than trust serialized copies.
    for (std::size_t i = 0; i < detectWords_.size(); ++i)
        detectWords_[i] =
            detector_->compute(array_.line(i).intendedWord());

    // Restored cells invalidate every cached crossing tick; the next
    // visit of each shard rebuilds its calendar from the new state.
    ++lazyEpoch_;
}

void
CellBackend::loadShardExtras(SnapshotSource &source, std::size_t shard)
{
    VisitBuffer &visit = visits_[shard];
    visit.word = source.bits();
    if (!visit.word.empty() && visit.word.size() != code_->codewordBits())
        source.corrupt("buffered visit word has the wrong width");
    visit.line = source.u64();
    visit.tick = source.u64();
}

std::uint64_t
CellBackend::checkpointFingerprint() const
{
    Fingerprint fp;
    fp.str("cell-backend");
    fp.u64(config_.lines);
    fp.str(scheme_.name());
    fp.u64(static_cast<unsigned>(config_.detectorKind));
    fp.u64(config_.detectorParity);
    fp.u64(config_.ecpEntries);
    fp.u64(config_.seed);
    fp.u64(plan_.count());
    config_.degradation.addToFingerprint(fp);
    config_.device.addToFingerprint(fp);
    return fp.value();
}

} // namespace pcmscrub
