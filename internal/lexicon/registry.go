package lexicon

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Registry is a bounded in-process store of immutable lexicon versions,
// addressed by content (VersionID) and optionally by alias. It is the
// multi-tenant backbone: many versions are served side by side, each
// compiled and frozen at registration, so concurrent pipelines on
// different versions never contend and an in-flight run stays pinned to
// the exact version it resolved — registering, re-aliasing or evicting
// other versions cannot touch it.
//
// Hot reload: a registry bound to a directory (LoadDir) maps every
// `<name>.json` file to the alias `<name>` pointing at the file's content
// address. Rescan re-reads the directory without a restart; a file whose
// content changed registers the new version and moves the alias, while
// runs already holding the old version finish on it (both versions are
// live until the old one ages out of the LRU bound).
//
// A Registry is safe for concurrent use.
type Registry struct {
	mu sync.Mutex
	// max bounds registered versions (aliased versions and the default
	// version are never evicted; unpinned versions age out LRU).
	max int
	// entries maps full version ID -> entry; order is the LRU list over
	// the same entries (front = most recently resolved).
	entries map[string]*list.Element
	order   *list.List
	// aliases maps a stable name ("default", a file base name, a tenant
	// handle) to the full version ID it currently points at.
	aliases map[string]string
	// dir is the directory Rescan re-reads ("" when never LoadDir'ed).
	dir string

	// counters for /metrics.
	puts, evictions, reloads, dirLoads uint64
}

// DefaultMaxLexicons bounds a registry whose cap was left zero.
const DefaultMaxLexicons = 32

// DefaultAlias names the registry's default version: the embedded
// default lexicon unless SetDefault replaced it.
const DefaultAlias = "default"

// ErrRegistryFull reports a Put into a registry whose every slot is
// pinned by an alias.
var ErrRegistryFull = errors.New("lexicon: registry full (every version is alias-pinned)")

// ErrUnknownVersion reports a lookup of a version ID or alias the
// registry does not hold.
var ErrUnknownVersion = errors.New("lexicon: unknown lexicon version")

type regEntry struct {
	id  string
	lex *Lexicon
	// def marks the default version (never evicted).
	def bool
}

// NewRegistry returns a registry bounded to max versions (0: the
// default). The embedded default lexicon is pre-registered under its
// content address and the "default" alias; while it is the default it
// does not count against the bound and is never evicted (see SetDefault).
func NewRegistry(max int) *Registry {
	if max <= 0 {
		max = DefaultMaxLexicons
	}
	r := &Registry{
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
		aliases: make(map[string]string),
	}
	def := Default()
	id := def.VersionID()
	r.entries[id] = r.order.PushFront(&regEntry{id: id, lex: def, def: true})
	r.aliases[DefaultAlias] = id
	return r
}

// Put registers a lexicon version. The lexicon is deep-copied, compiled
// and frozen, so later mutations of l are invisible and every served
// version is immutable. Registering facts already present is a no-op
// returning the existing ID. Eviction drops the least-recently-resolved
// unpinned version; when every version is alias-pinned the registry is
// full and Put fails rather than silently breaking a pinned alias.
func (r *Registry) Put(l *Lexicon) (string, error) {
	frozen, id, err := freeze(l)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.entries[id]; ok {
		r.order.MoveToFront(el)
		return id, nil
	}
	if err := r.evictLocked(1); err != nil {
		return "", err
	}
	r.entries[id] = r.order.PushFront(&regEntry{id: id, lex: frozen})
	r.puts++
	return id, nil
}

// SetDefault registers l like Put and makes it the default version: the
// "default" alias and the never-evict mark move to it, and the previous
// default becomes an ordinary version that ages out like any other. A nil
// l keeps the current default. It returns the default's version ID.
func (r *Registry) SetDefault(l *Lexicon) string {
	frozen, id, err := freeze(l)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		return r.aliases[DefaultAlias]
	}
	el, ok := r.entries[id]
	if !ok {
		el = r.order.PushFront(&regEntry{id: id, lex: frozen})
		r.entries[id] = el
		r.puts++
	}
	r.entries[r.aliases[DefaultAlias]].Value.(*regEntry).def = false
	el.Value.(*regEntry).def = true
	r.aliases[DefaultAlias] = id
	// The old default now counts against the bound; past it, the least
	// recently resolved unpinned versions go (pins win over the bound).
	_ = r.evictLocked(0)
	return id
}

// freeze deep-copies and compiles l, so the registered version is
// immutable whatever the caller does with l afterwards.
func freeze(l *Lexicon) (*Lexicon, string, error) {
	if l == nil {
		return nil, "", errors.New("lexicon: cannot register a nil lexicon")
	}
	frozen := l.Clone()
	frozen.Compile()
	return frozen, frozen.VersionID(), nil
}

// PutArtifact decodes a content-addressed artifact (or a plain lexicon
// JSON file) and registers it, returning the verified version ID.
func (r *Registry) PutArtifact(data []byte) (string, error) {
	l, _, err := DecodeAny(data)
	if err != nil {
		return "", err
	}
	return r.Put(l)
}

// evictLocked makes room for `room` more versions: counts non-default
// entries and drops the least-recently-resolved ones no alias pins until
// they fit under the bound.
func (r *Registry) evictLocked(room int) error {
	live := 0
	for _, el := range r.entries {
		if !el.Value.(*regEntry).def {
			live++
		}
	}
	if live+room <= r.max {
		return nil
	}
	pinned := make(map[string]bool, len(r.aliases))
	for _, id := range r.aliases {
		pinned[id] = true
	}
	for el := r.order.Back(); el != nil && live+room > r.max; {
		e, prev := el.Value.(*regEntry), el.Prev()
		if !e.def && !pinned[e.id] {
			r.order.Remove(el)
			delete(r.entries, e.id)
			r.evictions++
			live--
		}
		el = prev
	}
	if live+room > r.max {
		return ErrRegistryFull
	}
	return nil
}

// Resolve maps a version ID or alias to the frozen lexicon it names,
// marking the version recently used. The empty name resolves to the
// default lexicon.
func (r *Registry) Resolve(name string) (id string, lex *Lexicon, err error) {
	if name == "" {
		name = DefaultAlias
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if aliased, ok := r.aliases[name]; ok {
		name = aliased
	}
	el, ok := r.entries[name]
	if !ok {
		return "", nil, fmt.Errorf("%w: %q", ErrUnknownVersion, name)
	}
	r.order.MoveToFront(el)
	e := el.Value.(*regEntry)
	return e.id, e.lex, nil
}

// SetAlias points name at an already-registered version ID (aliases may
// not alias aliases, keeping resolution one hop). The "default" alias is
// reserved.
func (r *Registry) SetAlias(name, id string) error {
	if name == "" || name == DefaultAlias {
		return fmt.Errorf("lexicon: alias %q is reserved", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[id]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownVersion, id)
	}
	r.aliases[name] = id
	return nil
}

// Version describes one registered lexicon version.
type Version struct {
	// ID is the full content address; Short its display prefix.
	ID    string `json:"id"`
	Short string `json:"short"`
	// Aliases lists the names currently pointing at this version, sorted.
	Aliases []string `json:"aliases,omitempty"`
	// Default marks the default version (the "default" alias target).
	Default bool `json:"default,omitempty"`
	// Knowledge-base size, for listings.
	Words     int `json:"words"`
	Synsets   int `json:"synsets"`
	Hypernyms int `json:"hypernyms"`
}

// List enumerates every registered version sorted by ID (the default
// first), without touching recency.
func (r *Registry) List() []Version {
	r.mu.Lock()
	defer r.mu.Unlock()
	byID := make(map[string][]string)
	for name, id := range r.aliases {
		byID[id] = append(byID[id], name)
	}
	out := make([]Version, 0, len(r.entries))
	for id, el := range r.entries {
		e := el.Value.(*regEntry)
		v := Version{
			ID:      id,
			Short:   id[:12],
			Aliases: byID[id],
			Default: e.def,
			Words:   len(e.lex.vocab),
			Synsets: len(e.lex.members),
		}
		for _, ps := range e.lex.hypernyms {
			v.Hypernyms += len(ps)
		}
		sort.Strings(v.Aliases)
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Default != out[j].Default {
			return out[i].Default
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len returns the number of registered versions (including the default).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// RegistryStats snapshots the registry's lifecycle counters.
type RegistryStats struct {
	Versions  int
	Aliases   int
	Puts      uint64
	Evictions uint64
	Reloads   uint64
	DirLoads  uint64
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RegistryStats{
		Versions:  len(r.entries),
		Aliases:   len(r.aliases),
		Puts:      r.puts,
		Evictions: r.evictions,
		Reloads:   r.reloads,
		DirLoads:  r.dirLoads,
	}
}

// LoadDir binds the registry to a directory and loads every `*.json`
// file in it: artifacts are verified against their embedded address,
// plain lexicon files are addressed on load, and each file's base name
// becomes an alias for its content. Returns how many files registered.
// Individual bad files are skipped and reported together; the good ones
// still load.
func (r *Registry) LoadDir(dir string) (int, error) {
	r.mu.Lock()
	r.dir = dir
	r.mu.Unlock()
	return r.rescan(dir, false)
}

// Rescan re-reads the bound directory, registering new or changed files
// and re-pointing their aliases — hot reload, no restart. A registry
// never bound to a directory rescans nothing.
func (r *Registry) Rescan() (int, error) {
	r.mu.Lock()
	dir := r.dir
	r.reloads++
	r.mu.Unlock()
	if dir == "" {
		return 0, nil
	}
	return r.rescan(dir, true)
}

func (r *Registry) rescan(dir string, reload bool) (int, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return 0, fmt.Errorf("lexicon: scanning %s: %w", dir, err)
	}
	sort.Strings(names)
	loaded := 0
	var errs []string
	for _, path := range names {
		alias := strings.TrimSuffix(filepath.Base(path), ".json")
		if alias == "" || alias == DefaultAlias {
			errs = append(errs, fmt.Sprintf("%s: file name %q is reserved", path, alias))
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		id, err := r.PutArtifact(data)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", path, err))
			continue
		}
		if err := r.SetAlias(alias, id); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", path, err))
			continue
		}
		loaded++
	}
	r.mu.Lock()
	if !reload {
		r.dirLoads++
	}
	r.mu.Unlock()
	if len(errs) > 0 {
		return loaded, fmt.Errorf("lexicon: %d file(s) skipped: %s", len(errs), strings.Join(errs, "; "))
	}
	return loaded, nil
}
