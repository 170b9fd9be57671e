package lexicon

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// variant returns a Default clone extended with one distinguishing
// synset, so each name yields a distinct version ID deterministically.
func variant(word string) *Lexicon {
	l := Default().Clone()
	l.AddSynonyms(word, word+"alt")
	return l
}

func TestRegistryDefaultPinned(t *testing.T) {
	r := NewRegistry(1)
	defID := Default().VersionID()

	for _, name := range []string{"", DefaultAlias, defID} {
		id, lex, err := r.Resolve(name)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", name, err)
		}
		if id != defID || lex == nil {
			t.Fatalf("Resolve(%q) = %s, want the default %s", name, id, defID)
		}
	}

	// The default never counts against the bound: a max=1 registry still
	// accepts one more version.
	if _, err := r.Put(variant("alpha")); err != nil {
		t.Fatalf("Put into max=1 registry holding only the default: %v", err)
	}

	list := r.List()
	if len(list) != 2 || !list[0].Default {
		t.Fatalf("List() = %+v, want default first of 2", list)
	}
	if list[0].ID != defID || list[0].Aliases[0] != DefaultAlias {
		t.Fatalf("default listing = %+v", list[0])
	}
	if list[0].Words == 0 || list[0].Synsets == 0 || list[0].Hypernyms == 0 {
		t.Fatalf("default listing reports an empty knowledge base: %+v", list[0])
	}
}

// TestRegistrySetDefault: SetDefault moves the "default" alias and the
// never-evict mark to the new version; the embedded lexicon stays
// registered as an ordinary version that the bound can evict.
func TestRegistrySetDefault(t *testing.T) {
	r := NewRegistry(1)
	embedded := Default().VersionID()
	id := r.SetDefault(variant("override"))
	for _, name := range []string{"", DefaultAlias, id} {
		if got, _, err := r.Resolve(name); err != nil || got != id {
			t.Fatalf("Resolve(%q) = %s, %v; want the override %s", name, got, err, id)
		}
	}
	list := r.List()
	if len(list) != 2 || !list[0].Default || list[0].ID != id || list[1].Default || list[1].ID != embedded {
		t.Fatalf("List() = %+v, want the override as the one default, then the embedded lexicon", list)
	}

	// The embedded lexicon now fills the max=1 bound: the next Put
	// evicts it, and the override survives.
	if _, err := r.Put(variant("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Resolve(embedded); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("embedded lexicon survived eviction: %v", err)
	}
	if got, _, err := r.Resolve(DefaultAlias); err != nil || got != id {
		t.Fatalf("default after eviction = %s, %v; want %s", got, err, id)
	}
	if got := r.SetDefault(nil); got != id {
		t.Fatalf("SetDefault(nil) = %s, want the current default %s", got, id)
	}
}

// TestRegistryImmutability: Put deep-copies, so mutating the source
// lexicon afterwards cannot change the served version (or its address).
func TestRegistryImmutability(t *testing.T) {
	r := NewRegistry(4)
	l := variant("gamma")
	id, err := r.Put(l)
	if err != nil {
		t.Fatal(err)
	}
	l.AddSynonyms("poison", "toxin") // after-the-fact mutation

	_, served, err := r.Resolve(id)
	if err != nil {
		t.Fatal(err)
	}
	if served.Synonym("poison", "toxin") {
		t.Fatal("mutating the source lexicon leaked into the registered version")
	}
	if served.VersionID() != id {
		t.Fatalf("served version re-addresses to %s, registered as %s", served.VersionID(), id)
	}

	// Same facts again: a no-op returning the existing ID, not a new slot.
	again, err := r.Put(variant("gamma"))
	if err != nil {
		t.Fatal(err)
	}
	if again != id {
		t.Fatalf("re-registering equal facts gave %s, want %s", again, id)
	}
	if st := r.Stats(); st.Puts != 1 {
		t.Fatalf("Puts = %d after a duplicate Put, want 1", st.Puts)
	}
}

func TestRegistryEvictionAndAliasPinning(t *testing.T) {
	r := NewRegistry(2)
	idA, err := r.Put(variant("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetAlias("tenant-a", idA); err != nil {
		t.Fatal(err)
	}
	idB, err := r.Put(variant("beta"))
	if err != nil {
		t.Fatal(err)
	}

	// A is older than B but alias-pinned: registering C must evict B.
	idC, err := r.Put(variant("delta"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Resolve(idB); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("unpinned LRU version survived eviction (err=%v)", err)
	}
	for _, id := range []string{idA, idC} {
		if _, _, err := r.Resolve(id); err != nil {
			t.Fatalf("version %s evicted wrongly: %v", id, err)
		}
	}
	if st := r.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}

	// Pin C too: now every slot is held by an alias and Put must refuse
	// rather than silently break a pinned name.
	if err := r.SetAlias("tenant-c", idC); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put(variant("epsilon")); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("Put into a fully pinned registry: err=%v, want ErrRegistryFull", err)
	}
}

func TestRegistrySetAliasValidation(t *testing.T) {
	r := NewRegistry(4)
	id, err := r.Put(variant("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetAlias(DefaultAlias, id); err == nil {
		t.Fatal("re-pointing the reserved default alias succeeded")
	}
	if err := r.SetAlias("", id); err == nil {
		t.Fatal("empty alias accepted")
	}
	if err := r.SetAlias("ghost", strings.Repeat("0", 64)); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("aliasing an unregistered id: err=%v, want ErrUnknownVersion", err)
	}

	// Aliases resolve one hop and bump recency.
	if err := r.SetAlias("tenant-a", id); err != nil {
		t.Fatal(err)
	}
	got, _, err := r.Resolve("tenant-a")
	if err != nil || got != id {
		t.Fatalf("Resolve(tenant-a) = %s, %v; want %s", got, err, id)
	}
}

func TestRegistryLoadDirAndRescan(t *testing.T) {
	dir := t.TempDir()
	a, b := variant("alpha"), variant("beta")
	art, err := a.EncodeArtifact()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := b.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	// One self-verifying artifact, one plain lexicon file: both load.
	if err := os.WriteFile(filepath.Join(dir, "tenant-a.json"), art, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tenant-b.json"), plain, 0o644); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry(8)
	n, err := r.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if n != 2 {
		t.Fatalf("LoadDir loaded %d files, want 2", n)
	}
	idA, _, err := r.Resolve("tenant-a")
	if err != nil || idA != a.VersionID() {
		t.Fatalf("tenant-a resolves to %s, %v; want %s", idA, err, a.VersionID())
	}
	if idB, _, err := r.Resolve("tenant-b"); err != nil || idB != b.VersionID() {
		t.Fatalf("tenant-b resolves to %s, %v; want %s", idB, err, b.VersionID())
	}

	// Hot reload: overwrite tenant-a with new facts. The alias moves to
	// the new address; the old version stays resolvable by full ID.
	a2 := variant("alphaprime")
	art2, err := a2.EncodeArtifact()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tenant-a.json"), art2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Rescan(); err != nil {
		t.Fatalf("Rescan: %v", err)
	}
	if id, _, err := r.Resolve("tenant-a"); err != nil || id != a2.VersionID() {
		t.Fatalf("after rescan tenant-a resolves to %s, %v; want %s", id, err, a2.VersionID())
	}
	if _, _, err := r.Resolve(idA); err != nil {
		t.Fatalf("pre-reload version %s no longer resolvable: %v", idA, err)
	}
	if st := r.Stats(); st.Reloads != 1 || st.DirLoads != 1 {
		t.Fatalf("stats after one LoadDir + one Rescan: %+v", st)
	}

	// Partial failure: a corrupt file and a reserved name are reported,
	// the good files still (re)load.
	if err := os.WriteFile(filepath.Join(dir, "broken.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "default.json"), plain, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Rescan(); err == nil {
		t.Fatal("rescan with a corrupt and a reserved file reported no error")
	} else {
		if !strings.Contains(err.Error(), "broken.json") || !strings.Contains(err.Error(), "reserved") {
			t.Fatalf("error does not name the bad files: %v", err)
		}
	}
	if _, _, err := r.Resolve("tenant-a"); err != nil {
		t.Fatalf("good aliases lost after a partial-failure rescan: %v", err)
	}
	if _, _, err := r.Resolve(""); err != nil {
		t.Fatalf("default lost: %v", err)
	}

	// A registry never bound to a directory rescans nothing.
	unbound := NewRegistry(2)
	if n, err := unbound.Rescan(); n != 0 || err != nil {
		t.Fatalf("unbound Rescan = %d, %v", n, err)
	}
}
