package core

import (
	"fmt"
	"math"

	"github.com/ares-cps/ares/internal/attack"
	"github.com/ares-cps/ares/internal/dataflash"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/par"
	"github.com/ares-cps/ares/internal/vars"
)

// ProfileConfig configures the RAV profiling step: benign missions flown
// while tracing the full state variable space.
type ProfileConfig struct {
	// Mission is the benign mission to fly; nil uses the 25 m square.
	Mission *firmware.Mission
	// Missions is the number of benign flights (the paper logs 5).
	Missions int
	// SampleHz is the trace rate (the paper logs at 16 Hz).
	SampleHz float64
	// MaxMissionS bounds each flight in simulated seconds.
	MaxMissionS float64
	// Seed seeds sensor noise; each mission uses Seed+i.
	Seed int64
	// Variables restricts tracing to the named variables; empty traces
	// every registered variable.
	Variables []string
}

// Profile holds the traced operation data: one time series per state
// variable, concatenated across missions (with per-mission lengths kept so
// analyses can split them).
type Profile struct {
	// Names lists the traced variables in stable order.
	Names []string
	// Series maps variable name to its samples.
	Series map[string][]float64
	// MissionLens records the sample count of each mission.
	MissionLens []int
	// SampleHz is the trace rate used.
	SampleHz float64
}

// Samples returns the total sample count per variable.
func (p *Profile) Samples() int {
	total := 0
	for _, n := range p.MissionLens {
		total += n
	}
	return total
}

// SeriesFor assembles the (names, series) pair for a list of variables,
// skipping any that were not traced; the second return lists the skipped
// names.
func (p *Profile) SeriesFor(names []string) ([]string, [][]float64, []string) {
	var kept []string
	var series [][]float64
	var missing []string
	for _, n := range names {
		s, ok := p.Series[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		kept = append(kept, n)
		series = append(series, s)
	}
	return kept, series, missing
}

// CollectProfile flies the configured benign missions and traces the state
// variable space through the live variable set — the memory-instrumentation
// view of the paper's profiling step. The flights are independent seeded
// runs, so they fly concurrently on the process budget and merge in
// mission order: the profile is identical at any GOMAXPROCS, and a failed
// profile reports the lowest-index mission's error.
func CollectProfile(cfg ProfileConfig) (*Profile, error) {
	if cfg.Mission == nil {
		cfg.Mission = firmware.SquareMission(25, 10)
	}
	if cfg.Missions <= 0 {
		cfg.Missions = 5
	}
	if cfg.SampleHz <= 0 {
		cfg.SampleHz = 16
	}
	if cfg.MaxMissionS <= 0 {
		cfg.MaxMissionS = 120
	}

	alt := -cfg.Mission.Target().Z
	wps := make([]firmware.Waypoint, 0, cfg.Mission.Len())
	for _, p := range cfg.Mission.Path() {
		wps = append(wps, firmware.Waypoint{Pos: p})
	}
	flights := make([]flightTrace, cfg.Missions)
	errs := make([]error, cfg.Missions)
	par.Do(0, cfg.Missions, func(m int) {
		errs[m] = flights[m].fly(cfg, m, alt, wps)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	prof := &Profile{
		Names:       flights[0].names,
		Series:      make(map[string][]float64, len(flights[0].names)),
		MissionLens: make([]int, cfg.Missions),
		SampleHz:    cfg.SampleHz,
	}
	total := 0
	for m := range flights {
		prof.MissionLens[m] = flights[m].count
		total += flights[m].count
	}
	for j, name := range prof.Names {
		var s []float64
		if total > 0 {
			s = make([]float64, 0, total)
		}
		for m := range flights {
			f := &flights[m]
			for b, block := range f.blocks[j] {
				s = append(s, block[:min(traceBlock, f.count-b*traceBlock)]...)
			}
			f.blocks[j] = nil // release the flight's blocks as they merge
		}
		prof.Series[name] = s
	}
	return prof, nil
}

// traceBlock is the sample count of one trace block.
const traceBlock = 256

// flightTrace is one profiling flight's samples: per variable, a chain of
// fixed-size blocks. Blocks grow a flight of unknown length without
// re-copying, and the merge drops each variable's blocks as it copies
// them, so the flights' blocks and the merged series are never both held
// in full (DESIGN.md, "Algorithm 1 hot path").
type flightTrace struct {
	names  []string
	blocks [][][]float64 // [variable][block][traceBlock]
	count  int
}

// fly flies benign mission m of cfg and traces it into f.
func (f *flightTrace) fly(cfg ProfileConfig, m int, alt float64, wps []firmware.Waypoint) error {
	fw, err := attack.NewFirmware(cfg.Seed + int64(m)) //areslint:ignore seedarith golden-pinned
	if err != nil {
		return err
	}
	refs, names, err := resolveRefs(fw, cfg.Variables)
	if err != nil {
		return err
	}
	f.names = names
	f.blocks = make([][][]float64, len(refs))

	if err := fw.Takeoff(alt); err != nil {
		return err
	}
	fw.RunFor(10)
	fw.LoadMission(firmware.NewMission(wps))
	if err := fw.StartMission(); err != nil {
		return err
	}

	every := int(math.Max(1, math.Round(1/(cfg.SampleHz*fw.DT()))))
	maxTicks := int(cfg.MaxMissionS / fw.DT())
	for i := 0; i < maxTicks && !fw.Mission().Complete(); i++ {
		fw.Step()
		if i%every != 0 {
			continue
		}
		k := f.count % traceBlock
		if k == 0 {
			for j := range f.blocks {
				f.blocks[j] = append(f.blocks[j], make([]float64, traceBlock))
			}
		}
		for j, ref := range refs {
			f.blocks[j][len(f.blocks[j])-1][k] = ref.Get()
		}
		f.count++
	}
	if crashed, reason := fw.Quad().Crashed(); crashed {
		return fmt.Errorf("core: profiling mission %d crashed: %s", m, reason)
	}
	return nil
}

// ProfileFromLog builds a Profile from a recorded dataflash log — the
// paper's actual KSVL source ("the onboard dataflash memory logger, which
// can be downloaded after an operational mission for debugging"). Only the
// variables the logger records are available; the intermediate controller
// variables that require memory instrumentation (PIDR.INTEG, CMD.*, …) are
// absent, which is exactly the visibility gap the ESVL expansion closes.
//
// The variables argument restricts extraction; empty extracts every logged
// variable. Variables with no records are skipped.
func ProfileFromLog(log *dataflash.Log, variables []string) (*Profile, error) {
	if len(variables) == 0 {
		variables = log.Variables()
	}
	prof := &Profile{Series: make(map[string][]float64)}
	n := -1
	for _, name := range variables {
		_, values := log.Series(name)
		if len(values) == 0 {
			continue
		}
		if n < 0 {
			n = len(values)
		}
		if len(values) != n {
			// Message types logged at different cadences cannot share
			// one aligned matrix; truncate to the shortest.
			if len(values) < n {
				n = len(values)
			}
		}
		prof.Names = append(prof.Names, name)
		prof.Series[name] = values
	}
	if len(prof.Names) == 0 {
		return nil, fmt.Errorf("core: log contains none of the requested variables")
	}
	for _, name := range prof.Names {
		prof.Series[name] = prof.Series[name][:n]
	}
	prof.MissionLens = []int{n}
	// Infer the sample rate from the first variable's timestamps.
	if times, _ := log.Series(prof.Names[0]); len(times) > 1 {
		dt := (times[len(times)-1] - times[0]) / float64(len(times)-1)
		if dt > 0 {
			prof.SampleHz = 1 / dt
		}
	}
	return prof, nil
}

func resolveRefs(fw *firmware.Firmware, names []string) ([]vars.Ref, []string, error) {
	if len(names) == 0 {
		names = fw.Vars().Names()
	}
	refs := make([]vars.Ref, 0, len(names))
	kept := make([]string, 0, len(names))
	for _, n := range names {
		ref, ok := fw.Vars().Lookup(n)
		if !ok {
			return nil, nil, fmt.Errorf("core: unknown variable %q", n)
		}
		refs = append(refs, ref)
		kept = append(kept, n)
	}
	return refs, kept, nil
}
