package gallery

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/bgbuster/bgbuster/internal/vidstream"
)

var updateGolden = flag.Bool("update", false, "regenerate the gallery golden corpus under testdata/")

// The gallery golden corpus pins the layout grammar AND the demuxer on
// deterministic composite fixtures: 2-, 4-, 9- and 16-tile steady
// meetings plus one meeting with a mid-call resize (a join at frame 4
// and a leave at frame 8). The committed .bbv composites are decoded
// and demuxed; the expectations record the committed tile rectangles,
// the lane count, the retile count and a per-lane FNV-64a hash over
// every demuxed frame. Any change to the grammar (gutters, centering,
// letterboxing) or to grid inference, voting or lane tracking shows up
// as a rect or hash mismatch here. Regenerate deliberately with:
//
//	go test ./internal/gallery -run TestGalleryGolden -update
const goldenTileW, goldenTileH = 24, 16

type goldenCase struct {
	name string
	file string
}

var goldenCases = []goldenCase{
	{"tiles-2", "gallery-2.bbv"},
	{"tiles-4", "gallery-4.bbv"},
	{"tiles-9", "gallery-9.bbv"},
	{"tiles-16", "gallery-16.bbv"},
	{"resize", "gallery-resize.bbv"},
}

// goldenMeeting builds the deterministic meeting behind each fixture.
func goldenMeeting(t *testing.T, name string) *Result {
	t.Helper()
	build := func(joins, lens []int, seed int64) *Result {
		parts := make([]Participant, len(joins))
		for i := range joins {
			parts[i] = Participant{
				Frames: participantStream(testPalette[i%len(testPalette)], goldenTileW, goldenTileH, lens[i]),
				JoinAt: joins[i],
			}
		}
		res, err := Compose(parts, Spec{Seed: seed})
		if err != nil {
			t.Fatalf("compose %s: %v", name, err)
		}
		return res
	}
	steady := func(n int) *Result {
		joins := make([]int, n)
		lens := make([]int, n)
		for i := range lens {
			lens[i] = 10
		}
		return build(joins, lens, int64(n))
	}
	switch name {
	case "tiles-2":
		return steady(2)
	case "tiles-4":
		return steady(4)
	case "tiles-9":
		return steady(9)
	case "tiles-16":
		return steady(16)
	case "resize":
		// Three from the start (one leaves at 8), one joining at 4:
		// the grid passes 3 → 4 → 3 tiles.
		return build([]int{0, 0, 0, 4}, []int{16, 16, 8, 12}, 99)
	default:
		t.Fatalf("unknown golden case %q", name)
		return nil
	}
}

type goldenExpect struct {
	CanvasW int    `json:"canvasW"`
	CanvasH int    `json:"canvasH"`
	Rects   []Rect `json:"rects"` // committed tiling after the last frame
	Lanes   int    `json:"lanes"`
	Retiles int    `json:"retiles"`
	// LaneHashes maps "lane-<id>" to frameCount:fnv64a over every
	// demuxed pixel of that lane, in emission order.
	LaneHashes map[string]string `json:"laneHashes"`
}

// demuxGolden splits a fixture and digests it into an expectation.
func demuxGolden(t *testing.T, v *vidstream.Video) goldenExpect {
	t.Helper()
	lanes, stats, err := SplitVideo(v, Config{})
	if err != nil {
		t.Fatalf("SplitVideo: %v", err)
	}
	w, h := v.Size()
	exp := goldenExpect{CanvasW: w, CanvasH: h, Lanes: len(lanes), Retiles: stats.Retiles, LaneHashes: map[string]string{}}
	for _, ls := range lanes {
		fp := fnv.New64a()
		for _, f := range ls.Video.Frames {
			fp.Write(f.AppendRGB(nil))
		}
		exp.LaneHashes[fmt.Sprintf("lane-%d", ls.Lane)] = fmt.Sprintf("%d:%016x", ls.Video.Len(), fp.Sum64())
	}
	// Re-demux statefully for the final committed tiling.
	d := NewDemuxer(Config{})
	for _, f := range v.Frames {
		if _, err := d.Feed(f); err != nil {
			t.Fatal(err)
		}
	}
	exp.Rects = d.Tiling()
	return exp
}

func TestGalleryGoldenCorpus(t *testing.T) {
	dir := "testdata"
	goldenPath := filepath.Join(dir, "gallery_golden.json")

	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		expects := map[string]goldenExpect{}
		for _, tc := range goldenCases {
			res := goldenMeeting(t, tc.name)
			if err := vidstream.Save(filepath.Join(dir, tc.file), res.Video); err != nil {
				t.Fatal(err)
			}
			expects[tc.name] = demuxGolden(t, res.Video)
		}
		data, err := json.MarshalIndent(expects, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden corpus regenerated: %d fixtures", len(goldenCases))
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden corpus missing (run with -update): %v", err)
	}
	var expects map[string]goldenExpect
	if err := json.Unmarshal(raw, &expects); err != nil {
		t.Fatal(err)
	}

	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want, ok := expects[tc.name]
			if !ok {
				t.Fatalf("no expectation for %q (run with -update)", tc.name)
			}
			fixture, err := vidstream.Load(filepath.Join(dir, tc.file))
			if err != nil {
				t.Fatalf("fixture: %v", err)
			}
			// The compositor must still produce the committed bytes.
			res := goldenMeeting(t, tc.name)
			if res.Video.Len() != fixture.Len() {
				t.Fatalf("recomposed %d frames, fixture has %d", res.Video.Len(), fixture.Len())
			}
			for i := range fixture.Frames {
				if !res.Video.Frames[i].Equal(fixture.Frames[i]) {
					t.Fatalf("recomposed frame %d differs from fixture — layout grammar drifted", i)
				}
			}
			// The demuxer must still recover the committed expectations.
			got := demuxGolden(t, fixture)
			if got.CanvasW != want.CanvasW || got.CanvasH != want.CanvasH {
				t.Errorf("canvas %dx%d, want %dx%d", got.CanvasW, got.CanvasH, want.CanvasW, want.CanvasH)
			}
			if got.Lanes != want.Lanes || got.Retiles != want.Retiles {
				t.Errorf("lanes/retiles %d/%d, want %d/%d", got.Lanes, got.Retiles, want.Lanes, want.Retiles)
			}
			if len(got.Rects) != len(want.Rects) {
				t.Fatalf("final tiling has %d rects, want %d", len(got.Rects), len(want.Rects))
			}
			for i := range want.Rects {
				if got.Rects[i] != want.Rects[i] {
					t.Errorf("rect %d = %+v, want %+v", i, got.Rects[i], want.Rects[i])
				}
			}
			var keys []string
			for k := range want.LaneHashes {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if got.LaneHashes[k] != want.LaneHashes[k] {
					t.Errorf("%s hash %s, want %s", k, got.LaneHashes[k], want.LaneHashes[k])
				}
			}
			if len(got.LaneHashes) != len(want.LaneHashes) {
				t.Errorf("%d lanes hashed, want %d", len(got.LaneHashes), len(want.LaneHashes))
			}
		})
	}
}
