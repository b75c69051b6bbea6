package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/ares-cps/ares/internal/firmware"
)

// profileDigest hashes everything CollectProfile returns: the variable
// names in order, every series' float bits behind a nil/empty marker, the
// per-mission sample counts and the trace rate.
func profileDigest(p *Profile) string {
	h := sha256.New()
	var buf []byte
	u64 := func(x uint64) { buf = binary.LittleEndian.AppendUint64(buf, x) }
	u64(uint64(len(p.Names)))
	for _, n := range p.Names {
		u64(uint64(len(n)))
		buf = append(buf, n...)
	}
	u64(uint64(len(p.Series)))
	for _, n := range p.Names {
		s, ok := p.Series[n]
		switch {
		case !ok:
			u64(0)
		case s == nil:
			u64(1)
		default:
			u64(2)
			u64(uint64(len(s)))
			for _, v := range s {
				u64(math.Float64bits(v))
			}
		}
		h.Write(buf)
		buf = buf[:0]
	}
	u64(uint64(len(p.MissionLens)))
	for _, n := range p.MissionLens {
		u64(uint64(n))
	}
	u64(math.Float64bits(p.SampleHz))
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// TestCollectProfileDigest pins CollectProfile bit for bit — names, every
// sample, nil versus empty series and the mission lengths — and the exact
// error of a profile whose benign flight crashes, at GOMAXPROCS 1 and 4,
// so the order profiling flights are flown and merged in cannot show in
// the output.
func TestCollectProfileDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The recorded bits assume no fused multiply-add: amd64 Go emits
		// none at its default GOAMD64=v1 level, arm64 and others may.
		t.Skipf("digests recorded on amd64, not %s", runtime.GOARCH)
	}
	cases := []struct {
		name string
		cfg  ProfileConfig
		want string // digest, or the error text when err
		err  bool
	}{
		{name: "default", cfg: ProfileConfig{}, want: "b4007c19e9f39d0176c24ef1c155063547c1adf8f1b8bd17eac998bceac34ac9"},
		{
			name: "square50-seed3",
			cfg:  ProfileConfig{Mission: firmware.SquareMission(50, 10), Seed: 3},
			want: "fe9073465bf5e8cd5fa8d62ebabd65653c1c20ede6409c690376a85af1e5c5f2",
		},
		{
			name: "subset",
			cfg: ProfileConfig{
				Missions:  3,
				Seed:      7,
				Variables: []string{"CMD.Roll", "PIDR.INTEG", "ATT.Roll", "ATT.DesRoll", "RATE.RDes"},
			},
			want: "b8084b094e8d79c6d19cb04c4e05338f97019f186c2f40c87cbda646693c9840",
		},
		{
			name: "one-mission",
			cfg:  ProfileConfig{Mission: firmware.LineMission(40, 10), Missions: 1, Seed: 11},
			want: "d78dc4214e8f24aa91ef23c40da0b9eda43cb10822f9f07b8d61c422a0573e39",
		},
		{
			name: "400hz",
			cfg:  ProfileConfig{Missions: 2, SampleHz: 400, Seed: 5},
			want: "28875883446b4fc09c44988dbfed3ee76f7da32deed0873ddafe7db1204fc81a",
		},
		{
			// 4 s per flight: no mission completes.
			name: "cut-short",
			cfg:  ProfileConfig{Missions: 3, MaxMissionS: 4, Seed: 2},
			want: "91e4af991e75d375d6e5ee68878b2966765543d91935ddc07a685d414a51f300",
		},
		{
			// Under one tick per flight: every series stays nil.
			name: "no-samples",
			cfg:  ProfileConfig{Missions: 3, MaxMissionS: 0.001, Seed: 2},
			want: "08bb2316f09daebf621614c2a18cf1362114513331302eb125df2fca10bcae8f",
		},
		{
			name: "crash-mission1",
			cfg:  ProfileConfig{Mission: firmware.SquareMission(60, 10), Seed: 35},
			want: "core: profiling mission 1 crashed: tip-over near ground",
			err:  true,
		},
		{
			// Missions 1 and 8 both crash; the lower index is reported.
			name: "crash-mission1-and-8",
			cfg:  ProfileConfig{Mission: firmware.SquareMission(60, 10), Missions: 9, Seed: 35},
			want: "core: profiling mission 1 crashed: tip-over near ground",
			err:  true,
		},
	}
	for _, procs := range []int{1, 4} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/procs%d", tc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				prof, err := CollectProfile(tc.cfg)
				if tc.err {
					if err == nil || err.Error() != tc.want {
						t.Fatalf("error = %v, want %q", err, tc.want)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if prof.Samples() == 0 {
					for _, n := range prof.Names {
						if prof.Series[n] != nil {
							t.Fatalf("series %s is empty but not nil", n)
						}
					}
				}
				if got := profileDigest(prof); got != tc.want {
					t.Errorf("digest = %s, want %s", got, tc.want)
				}
			})
		}
	}
}
