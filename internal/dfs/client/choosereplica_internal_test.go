package client

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/dfs"
)

// countingSource counts the draws chooseReplica makes from the
// client's replica-choice rng.
type countingSource struct {
	src   rand.Source
	draws int
}

func (s *countingSource) Int63() int64    { s.draws++; return s.src.Int63() }
func (s *countingSource) Seed(seed int64) { s.src.Seed(seed) }

// choiceClient is a client with only what chooseReplica reads.
func choiceClient(local string, seed int64) (*Client, *countingSource) {
	src := &countingSource{src: rand.NewSource(seed)}
	return &Client{localAddr: local, rng: rand.New(src)}, src
}

// located builds a located block over the sorted holders nodes, of
// which ram are pinned in memory and ssd hold a flash copy (both in
// nodes order; a node may be in both).
func located(nodes, ram, ssd []string, assigned string) dfs.LocatedBlock {
	lb := dfs.LocatedBlock{Nodes: nodes, Assigned: assigned}
	for i, n := range nodes {
		t := dfs.TierHDD
		if slices.Contains(ram, n) {
			t = dfs.TierRAM
		} else if slices.Contains(ssd, n) {
			t = dfs.TierSSD
		}
		if t != dfs.TierHDD && lb.Tiers == nil {
			lb.Tiers = make([]dfs.Tier, len(nodes))
		}
		if lb.Tiers != nil {
			lb.Tiers[i] = t
		}
	}
	return lb
}

func TestChooseReplicaTable(t *testing.T) {
	abc := []string{"a", "b", "c"}
	cases := []struct {
		name      string
		local     string
		lb        dfs.LocatedBlock
		want      string
		wantDraws int
	}{
		{"assigned local", "b", located(abc, nil, nil, "b"), "b", 0},
		{"assigned local beats local RAM", "b", located(abc, []string{"a"}, nil, "b"), "b", 0},
		{"assigned pinned beats local RAM", "a", located(abc, []string{"a", "c"}, nil, "c"), "c", 0},
		{"assigned pinned, no local", "", located(abc, []string{"c"}, nil, "c"), "c", 0},
		{"assigned not pinned, RAM elsewhere", "", located(abc, []string{"a"}, nil, "b"), "a", 1},
		{"assigned not pinned, local disk", "c", located(abc, nil, nil, "b"), "c", 0},
		{"assigned on SSD only", "", located(abc, nil, []string{"b"}, "b"), "b", 1},
		{"RAM local", "c", located(abc, []string{"a", "c"}, nil, ""), "c", 0},
		{"RAM remote", "b", located(abc, []string{"a", "c"}, nil, ""), "c", 1},
		{"RAM remote, no local", "", located(abc, []string{"a", "c"}, []string{"b"}, ""), "c", 1},
		{"SSD local", "b", located(abc, nil, []string{"b", "c"}, ""), "b", 0},
		{"SSD remote", "a", located(abc, nil, []string{"b", "c"}, ""), "c", 1},
		{"HDD local", "a", located(abc, nil, nil, ""), "a", 0},
		{"HDD remote", "d", located(abc, nil, nil, ""), "c", 1},
		{"HDD remote, no local", "", located(abc, nil, nil, ""), "c", 1},
		{"no replicas", "a", located(nil, nil, nil, ""), "", 0},
		{"RAM and SSD node, remote", "", located(abc, []string{"b"}, []string{"b", "c"}, ""), "b", 1},
		{"RAM and SSD node beats local SSD", "c", located(abc, []string{"b"}, []string{"b", "c"}, ""), "b", 1},
		{"RAM and SSD node, local", "b", located(abc, []string{"b"}, []string{"b", "c"}, ""), "b", 0},
	}
	for _, tc := range cases {
		c, src := choiceClient(tc.local, 1)
		got := c.chooseReplica(tc.lb)
		if got != tc.want || src.draws != tc.wantDraws {
			t.Errorf("%s: chooseReplica = %q after %d draws, want %q after %d", tc.name, got, src.draws, tc.want, tc.wantDraws)
		}
	}
}

// chooseReplicaSeq pins a long run of choices from one client rng: the
// picked node (its index, '-' for none) and the draws each block made.
const (
	chooseReplicaSeqPicks = "" +
		"12424133111232310300410402130002412010434022021101" +
		"42342422031110131241000144041430440242311200343002" +
		"43431323344240431324204312220203413224004044214010" +
		"32233421234134402224021040302414041320401132103402"
	chooseReplicaSeqDraws = "" +
		"10010011101001110111011111111111111100001011100110" +
		"11111110111111011111010111010110111010110111111111" +
		"11111101011011111111110111110110110001111111011110" +
		"10010010111011000001111111111101111100001010010110"
)

func TestChooseReplicaSequence(t *testing.T) {
	pool := []string{"dn0", "dn1", "dn2", "dn3", "dn4"}
	g := rand.New(rand.NewSource(56))
	c, src := choiceClient("", 7)
	var picks, draws strings.Builder
	var blocks []string
	for i := 0; i < 200; i++ {
		var nodes, ram, ssd []string
		holders := g.Perm(len(pool))[:1+g.Intn(3)]
		sort.Ints(holders)
		for _, n := range holders {
			nodes = append(nodes, pool[n])
			switch g.Intn(4) {
			case 2:
				ssd = append(ssd, pool[n])
			case 3:
				ram = append(ram, pool[n])
				if g.Intn(2) == 0 {
					ssd = append(ssd, pool[n])
				}
			}
		}
		var assigned string
		if g.Intn(3) == 0 {
			assigned = nodes[g.Intn(len(nodes))]
		}
		c.localAddr = ""
		if l := g.Intn(len(pool) + 1); l < len(pool) {
			c.localAddr = pool[l]
		}
		lb := located(nodes, ram, ssd, assigned)
		before := src.draws
		got := c.chooseReplica(lb)
		pick := byte('-')
		if got != "" {
			pick = got[len(got)-1]
		}
		picks.WriteByte(pick)
		draws.WriteByte(byte('0' + src.draws - before))
		blocks = append(blocks, fmt.Sprintf("local=%q nodes=%v ram=%v ssd=%v assigned=%q", c.localAddr, nodes, ram, ssd, assigned))
	}
	if picks.String() != chooseReplicaSeqPicks || draws.String() != chooseReplicaSeqDraws {
		for i := range blocks {
			if i >= len(chooseReplicaSeqPicks) || i >= len(chooseReplicaSeqDraws) ||
				picks.String()[i] != chooseReplicaSeqPicks[i] || draws.String()[i] != chooseReplicaSeqDraws[i] {
				t.Errorf("block %d (%s): picked %c after %c draws; want the pinned sequence", i, blocks[i], picks.String()[i], draws.String()[i])
				break
			}
		}
		t.Fatalf("sequence moved:\npicks %s\ndraws %s", picks.String(), draws.String())
	}
}
