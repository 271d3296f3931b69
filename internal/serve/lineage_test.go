package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"latenttruth/internal/model"
	"latenttruth/internal/query"
	"latenttruth/internal/store"
)

// lineageRound builds round i of a dirty-refit chain: a new fact on an
// existing entity, a new covering source asserting an existing fact of
// another, and — on two rounds of three — a brand-new entity, so the chain
// exercises both the shared and the cloned entity index.
func lineageRound(ds *model.Dataset, i int) []model.Row {
	e1 := ds.Entities[(7*i)%len(ds.Entities)]
	e2 := ds.Entities[(7*i+3)%len(ds.Entities)]
	f2 := ds.Facts[ds.FactsByEntity[(7*i+3)%len(ds.Entities)][0]]
	rows := []model.Row{
		{Entity: e1, Attribute: fmt.Sprintf("lineage-attr-%d", i), Source: "good"},
		{Entity: e2, Attribute: f2.Attribute, Source: fmt.Sprintf("lineage-src-%d", i)},
	}
	if i%3 != 0 {
		rows = append(rows,
			model.Row{Entity: lineageEntity(i), Attribute: "a0", Source: "good"},
			model.Row{Entity: lineageEntity(i), Attribute: "a1", Source: "messy"})
	}
	return rows
}

// lineageEntity names the entity round i adds (rounds i%3 == 0 add none).
func lineageEntity(i int) string { return fmt.Sprintf("lineage-entity-%03d", i) }

// probeSnapshot spot-checks sn's name lookups from a concurrent reader:
// every fact of a few random entities resolves to its own id through
// Truth and QueryTruth, and the not-found errors are typed.
func probeSnapshot(sn *Snapshot, rng *rand.Rand) error {
	ds := sn.Dataset
	for k := 0; k < 4; k++ {
		e := rng.Intn(len(ds.Entities))
		name := ds.Entities[e]
		for _, f := range ds.FactsByEntity[e] {
			attr := ds.Facts[f].Attribute
			if row, err := sn.Truth(name, attr); err != nil || row != sn.row(f) {
				return fmt.Errorf("seq %d: Truth(%q, %q) = %+v/%v, want fact %d", sn.Seq, name, attr, row, err, f)
			}
			rows, err := sn.QueryTruth(query.TruthOptions{Entity: name, Attribute: attr})
			if err != nil {
				return fmt.Errorf("seq %d: QueryTruth(%q, %q): %v", sn.Seq, name, attr, err)
			}
			if row, ok := rows.Next(); !ok || row.Fact != f {
				return fmt.Errorf("seq %d: QueryTruth(%q, %q) = %+v/%v, want fact %d", sn.Seq, name, attr, row, ok, f)
			}
		}
		if _, err := sn.Truth(name, "no-such-attribute"); !errors.Is(err, ErrNoFact) {
			return fmt.Errorf("seq %d: unknown attribute of %q: %v, want ErrNoFact", sn.Seq, name, err)
		}
	}
	if _, err := sn.Truth("no-such-entity", "a0"); !errors.Is(err, ErrNoEntity) {
		return fmt.Errorf("seq %d: unknown entity: %v, want ErrNoEntity", sn.Seq, err)
	}
	return nil
}

// TestSnapshotLineage runs a chain of dirty refits that add entities,
// facts and covering sources, on both storage backends, with readers
// probing whatever snapshot is current throughout. Every snapshot of the
// chain — the carried-over read models included — must satisfy the full
// lookup contract (checkSnapshotComplete: stats equal a from-scratch
// Summarize, every name resolves to its own id, typed not-found errors),
// and no snapshot may ever resolve an entity added after it was published.
func TestSnapshotLineage(t *testing.T) {
	const rounds = 24
	for _, kind := range []string{store.StorageMemory, store.StorageSegments} {
		t.Run(kind, func(t *testing.T) {
			cfg := durableConfig(RefitDirty, t.TempDir())
			cfg.Storage = kind
			cfg.FullEvery = 1000 // every refit after the anchor takes the dirty path
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			base := testCorpus(t, 17).Dataset
			mustIngest(t, s, positiveRows(base))
			chain := []*Snapshot{mustRefit(t, s)}

			stop := make(chan struct{})
			errs := make(chan error, 4)
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := probeSnapshot(s.Snapshot(), rng); err != nil {
							errs <- err
							return
						}
					}
				}(int64(r))
			}

			for i := 1; i <= rounds; i++ {
				mustIngest(t, s, lineageRound(base, i))
				sn := mustRefit(t, s)
				if sn.Mode != RefitDirty {
					t.Fatalf("round %d: mode %q, want dirty", i, sn.Mode)
				}
				chain = append(chain, sn)
			}
			close(stop)
			wg.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}

			for i, sn := range chain {
				checkSnapshotComplete(t, sn)
				for j := 1; j <= rounds; j++ {
					if j%3 == 0 {
						continue
					}
					_, err := sn.EntityTruth(lineageEntity(j))
					if added := j <= i; added != (err == nil) {
						t.Fatalf("snapshot %d (round %d): EntityTruth(%q) err=%v; added in round %d",
							sn.Seq, i, lineageEntity(j), err, j)
					}
					if _, err := sn.Truth(lineageEntity(j), "a0"); j > i && !errors.Is(err, ErrNoEntity) {
						t.Fatalf("snapshot %d sees entity %q added later: %v", sn.Seq, lineageEntity(j), err)
					}
				}
			}
			// Snapshots without a new entity share their predecessor's index;
			// the others own a copy.
			for i := 1; i <= rounds; i++ {
				shared := sameMap(chain[i].entityByName, chain[i-1].entityByName)
				if want := i%3 == 0; shared != want {
					t.Fatalf("round %d: entity index shared=%t, want %t", i, shared, want)
				}
			}
		})
	}
}

// sameMap reports whether a and b are the same map value, not merely
// equal contents.
func sameMap(a, b map[string]int) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}
