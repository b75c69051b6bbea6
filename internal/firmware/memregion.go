// Package firmware assembles the full RAV flight stack: the 400 Hz
// scheduler, flight modes, mission engine, sensor/EKF/controller wiring,
// dataflash logging, the GCS protocol handler, and the MPU memory-region
// model that realizes the paper's threat model.
package firmware

import (
	"fmt"
	"sort"
	"sync"

	"github.com/ares-cps/ares/internal/vars"
)

// RegionPerm is the MPU access permission of a memory region.
type RegionPerm int

const (
	// PermReadWrite allows both reads and writes from unprivileged code.
	PermReadWrite RegionPerm = iota + 1
	// PermReadOnly allows only reads.
	PermReadOnly
	// PermNoAccess blocks unprivileged access entirely.
	PermNoAccess
)

// String returns the permission label.
func (p RegionPerm) String() string {
	switch p {
	case PermReadWrite:
		return "rw"
	case PermReadOnly:
		return "ro"
	case PermNoAccess:
		return "none"
	default:
		return fmt.Sprintf("perm(%d)", int(p))
	}
}

// Standard region names used by the firmware's memory map. The paper's
// observation drives the layout: "PID controllers executed by the stabilizer
// process usually run in the same memory region", so all three rate PIDs and
// their intermediates share RegionStabilizer.
const (
	RegionStabilizer = "stabilizer" // attitude + rate PIDs and intermediates
	RegionNavigator  = "navigator"  // position cascade, mission state
	RegionEstimator  = "estimator"  // EKF, SINS
	RegionDrivers    = "drivers"    // sensor readings
	RegionConfig     = "config"     // parameter table
	RegionActuators  = "actuators"  // motor outputs
)

// A Layout is the static half of the MPU configuration: the set of
// isolated regions and the region each state variable lives in. It holds
// no references into a running firmware, so one Layout answers access
// questions for every firmware built from the same variable registry.
type Layout struct {
	regions map[string]RegionPerm
	varHome map[string]string // variable name → region
}

// MemoryMap models the MPU configuration: a Layout over one firmware's
// live variable set.
type MemoryMap struct {
	Layout
	vars *vars.Set
}

// staticLayout builds the layout inventory once per process: the variable
// registry and region mapping depend on no Config, so one probe firmware
// answers for every vehicle and seed.
var staticLayout = sync.OnceValues(func() (*Layout, error) {
	fw, err := New(Config{})
	if err != nil {
		return nil, err
	}
	layout := fw.Memory().Layout // a copy: the probe firmware is not kept alive
	return &layout, nil
})

// StaticLayout returns the memory layout every firmware shares, booting one
// probe firmware on first use. Callers that validate a (region, variable)
// target before building their own firmware query it instead of booting a
// throwaway one.
func StaticLayout() (*Layout, error) { return staticLayout() }

// NewMemoryMap creates a map over the given variable set with the standard
// regions preconfigured read-write (the MPU isolates regions from *each
// other*; code inside a region has full access to it).
func NewMemoryMap(set *vars.Set) *MemoryMap {
	m := &MemoryMap{
		Layout: Layout{
			regions: make(map[string]RegionPerm),
			varHome: make(map[string]string),
		},
		vars: set,
	}
	for _, r := range []string{
		RegionStabilizer, RegionNavigator, RegionEstimator,
		RegionDrivers, RegionConfig, RegionActuators,
	} {
		m.regions[r] = PermReadWrite
	}
	return m
}

// AddRegion declares an additional region.
func (m *MemoryMap) AddRegion(name string, perm RegionPerm) {
	m.regions[name] = perm
}

// Assign places a variable in a region. Unknown variables or regions are
// wiring errors.
func (m *MemoryMap) Assign(variable, region string) error {
	if _, ok := m.regions[region]; !ok {
		return fmt.Errorf("firmware: unknown region %q", region)
	}
	if _, ok := m.vars.Lookup(variable); !ok {
		return fmt.Errorf("firmware: unknown variable %q", variable)
	}
	m.varHome[variable] = region
	return nil
}

// RegionOf returns the region holding a variable.
func (l *Layout) RegionOf(variable string) (string, bool) {
	r, ok := l.varHome[variable]
	return r, ok
}

// HasRegion reports whether region is one of the layout's MPU regions.
func (l *Layout) HasRegion(region string) bool {
	_, ok := l.regions[region]
	return ok
}

// VarsInRegion returns the names of all variables in a region, sorted. This
// is the attacker's reachable set after compromising that one region.
func (l *Layout) VarsInRegion(region string) []string {
	var names []string
	for v, r := range l.varHome {
		if r == region {
			names = append(names, v)
		}
	}
	sort.Strings(names)
	return names
}

// Regions returns all region names, sorted.
func (l *Layout) Regions() []string {
	names := make([]string, 0, len(l.regions))
	for r := range l.regions {
		names = append(names, r)
	}
	sort.Strings(names)
	return names
}

// AccessError reports an MPU access violation — the fault the hardware
// raises when code in one region touches another.
type AccessError struct {
	Variable   string
	From, Home string
	Write      bool
}

func (e *AccessError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("firmware: MPU violation: %s of %q (region %q) from region %q",
		op, e.Variable, e.Home, e.From)
}

// CheckAccess reports whether the requesting region may touch a variable:
// same-region access is always allowed, cross-region access is denied.
// This enforces the isolation the paper's attacker must work within —
// having compromised one region, only that region's variables are
// manipulable.
func (l *Layout) CheckAccess(fromRegion, variable string, write bool) error {
	home, ok := l.varHome[variable]
	if !ok {
		return fmt.Errorf("firmware: unknown variable %q", variable)
	}
	if home != fromRegion {
		return &AccessError{
			Variable: variable, From: fromRegion, Home: home, Write: write,
		}
	}
	return nil
}

// Access returns a Ref to a variable if, and only if, CheckAccess allows
// the requesting region to touch it.
func (m *MemoryMap) Access(fromRegion, variable string, write bool) (vars.Ref, error) {
	if err := m.CheckAccess(fromRegion, variable, write); err != nil {
		return vars.Ref{}, err
	}
	ref, ok := m.vars.Lookup(variable)
	if !ok {
		return vars.Ref{}, fmt.Errorf("firmware: variable %q lost from set", variable)
	}
	return ref, nil
}

// UnassignedVars returns registered variables that have no region, which the
// firmware treats as an assembly error.
func (m *MemoryMap) UnassignedVars() []string {
	var missing []string
	for _, name := range m.vars.Names() {
		if _, ok := m.varHome[name]; !ok {
			missing = append(missing, name)
		}
	}
	return missing
}
