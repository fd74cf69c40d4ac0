package campaign

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// TestAggregatePins pins the aggregate bytes of two small campaigns, a
// dist bus sweep (loss, jitter, slot rotation, shrink) and a priorityload
// priority shuffle (with shrink), by sha256. The determinism tests
// compare runs of the same code with each other; these catch a change
// that moves every run's bytes the same way. Change a pin only for an
// intended change of the aggregate.
func TestAggregatePins(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"dist_bus_sweep", distSpec(), "c12bbfa78b21d1dc02372b76a31dd2a4c0af84f06ec868f49c4316a25480490c"},
		{"priorityload_shuffle", Spec{
			Model: "priorityload", Variants: 8, Seed: 7,
			WarmNs: 5_000_000, RunNs: 40_000_000,
			ShufflePriorities: true,
			MissBudget:        0, DropBudget: -1,
			Shrink: true,
		}, "c7a712bdf48b770e16201c93dc6c4cca9210a66420ffde1d6e8ca21e488dccf9"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			agg, err := Run(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.MarshalIndent(agg, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != c.want {
				t.Fatalf("aggregate sha256 = %s, want %s\n%s", got, c.want, b)
			}
		})
	}
}
