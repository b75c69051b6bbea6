package main

import (
	"math/rand"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/cpv"
	"github.com/ares-cps/ares/internal/mathx"
)

// The workload generator. Every input the program under test receives is
// a deterministic function of the workload seed, drawn from finite tables
// whose outputs are recorded in refs.json: a caller may pass any seed,
// and each output must still be checked against a recorded reference.
// The seed decides which table entries a run uses and in which order.

// Seed streams of the generator (mathx.DeriveSeed keeps them independent).
const (
	streamCampaignOrder int64 = iota + 1
	streamPipelineOrder
	streamDaemonPerm
	streamDaemonClient
	streamFlight
)

// Campaign inputs: the whole catalog at fixed budgets, for each of a pool
// of campaign base seeds. A run makes whole passes over the pool in a
// seed-permuted order. Neither the budgets nor the pool subset are drawn
// from the seed: a campaign's cost varies by about 30% with its base seed
// (crashes and early stops change the work), so a drawn input would make
// jobs per second measure the draw.
const (
	campaignTrials   = 3
	campaignEpisodes = 12
	campaignSteps    = 60
	campaignPool     = 6
)

// campaignBaseSeed is pool entry i's campaign base seed.
func campaignBaseSeed(i int) int64 { return mathx.DeriveSeed(0xCA4E, int64(i)) }

// campaignSpec compiles the whole built-in catalog as arescamp -cpv does.
func campaignSpec(base int64) (campaign.Spec, error) {
	return cpv.CompileIDs(cpv.Options{
		Name:     "arescamp",
		Seed:     base,
		Trials:   campaignTrials,
		Episodes: campaignEpisodes,
		MaxSteps: campaignSteps,
	}, cpv.IDs()...)
}

// campaignOrder is the order in which a run visits the campaign pool.
func campaignOrder(seed int64) []int {
	return rand.New(rand.NewSource(mathx.DeriveSeed(seed, streamCampaignOrder))).Perm(campaignPool)
}

// Algorithm 1 inputs: pipelines on a 50 m square, larger than the 25 m
// default so the stats layer carries about a third of a pipeline. (On a
// 60 m square 4 of 16 pipeline seeds crash a benign profiling flight, so
// the pipeline fails; see README.md.) Analysis time varies by pipeline
// seed, so a run always covers the whole pool in whole passes and the
// seed only permutes it: a seed-drawn subset would make the median
// measure the draw.
const (
	pipelineSide = 50
	pipelineAlt  = 10
	pipelinePool = 8
)

// pipelineSeed is pool entry i's pipeline seed.
func pipelineSeed(i int) int64 { return mathx.DeriveSeed(0xA161, int64(i)) }

// pipelineOrder is the seed list of one run's pass.
func pipelineOrder(seed int64) []int64 {
	perm := rand.New(rand.NewSource(mathx.DeriveSeed(seed, streamPipelineOrder))).Perm(pipelinePool)
	out := make([]int64, len(perm))
	for i, p := range perm {
		out[i] = pipelineSeed(p)
	}
	return out
}

// assess is one daemon request body for POST /v1/cpvs/{CPV}/assess.
type assess struct {
	CPV      string `json:"-"`
	Seed     int64  `json:"seed"`
	Trials   int    `json:"trials"`
	Episodes int    `json:"episodes"`
	MaxSteps int    `json:"max_steps"`
}

// daemonTable is the number of distinct fresh assessments with recorded
// results, in blocks of one assessment per catalog record. A run draws
// each fresh request from it without replacement.
const daemonTable = 2400

// daemonEntry is table entry i: catalog record i mod 6 with short budgets
// (1 trial, 3 episodes, 10 steps) and its own campaign seed.
func daemonEntry(i int) assess {
	ids := cpv.IDs()
	return assess{
		CPV:      ids[i%len(ids)],
		Seed:     mathx.DeriveSeed(0xDAE5, int64(i)),
		Trials:   1,
		Episodes: 3,
		MaxSteps: 10,
	}
}

// Warm-up assessments made during daemon set-up, one per catalog mission:
// a long-lived daemon calibrates each mission's monitor once, on the first
// job that needs it, seeded from that job's campaign seed. ARES-CPV-001
// flies line:60 with the CI defense; ARES-CPV-006 is the only square:25
// record.
func daemonWarmups() []assess {
	return []assess{
		{CPV: "ARES-CPV-001", Seed: 7, Trials: 1, Episodes: 2, MaxSteps: 8},
		{CPV: "ARES-CPV-006", Seed: 7, Trials: 1, Episodes: 2, MaxSteps: 8},
	}
}

// Daemon request mix. Each client decides fresh versus repeat from its
// own random stream and its own completed specs, so the mix does not
// depend on timing. No recorded request log or documented usage pattern
// of the daemon exists to take the shares from; the fresh share and
// dedupEvery are assumptions, chosen so that fresh assessments keep both
// cores busy while a 30 s run still collects hundreds of repeats (a fresh
// request costs about 200 times a repeat) and a few dozen deduplicated
// pairs.
const (
	daemonClients = 2
	// Each client sends requests in cycles of cycleLen, freshPerCycle of
	// them fresh (40%) at positions drawn from its stream: an exact share,
	// so ops_per_s does not move with how many fresh specs a seed draws.
	cycleLen      = 5
	freshPerCycle = 2
	// Every dedupEvery-th fresh request is sent twice at once, so the
	// second copy collapses onto the first (singleflight dedup).
	dedupEvery = 8
	// repeatWindow is how many of its most recent completed specs a
	// client repeats from. Both clients' windows together stay well under
	// the server's default result cache of 128 entries, so a repeat is a
	// cache hit however many fresh specs a run completes; drawing from
	// every completed spec would send more and more repeats to the
	// disk-reload path as a faster program completes more.
	repeatWindow = 32
)

// daemonFresh is client c's fresh sequence. The table's blocks (one entry
// per catalog record) are dealt out to the clients in a seed-permuted
// order, and each block is visited in a seed-permuted order, so no two
// clients ever submit the same fresh spec (which would make hit versus
// fresh depend on timing) and every client's mix of records stays
// balanced: the records differ several-fold in cost, and an unbalanced
// draw would move the median.
func daemonFresh(seed int64, client int) []int {
	rng := rand.New(rand.NewSource(mathx.DeriveSeed(seed, streamDaemonPerm)))
	per := len(cpv.IDs())
	blocks := rng.Perm(daemonTable / per)
	var out []int
	for k, b := range blocks {
		order := rng.Perm(per)
		if k%daemonClients != client {
			continue
		}
		for _, j := range order {
			out = append(out, b*per+j)
		}
	}
	return out
}

// freshCycle draws the next cycle of a client's requests: true sends a
// fresh spec, false repeats one.
func freshCycle(rng *rand.Rand) []bool {
	out := make([]bool, cycleLen)
	for i, p := range rng.Perm(cycleLen) {
		out[i] = p < freshPerCycle
	}
	return out
}

// clientRand is client c's decision stream.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(mathx.DeriveSeed(mathx.DeriveSeed(seed, streamDaemonClient), int64(client))))
}

// flightSeed is the sensor seed of the traced per-tick flight.
func flightSeed(seed int64) int64 { return mathx.DeriveSeed(seed, streamFlight) }
