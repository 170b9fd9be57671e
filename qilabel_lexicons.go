package qilabel

import "qilabel/internal/lexicon"

// Versioned lexicon facade: content-addressed artifacts and the bounded
// multi-version registry, re-exported so the server layer (and library
// consumers building multi-tenant deployments) never import the internal
// package directly. See internal/lexicon/artifact.go and registry.go for
// the semantics; in one line: equal lexical facts always hash to equal
// version IDs, registered versions are immutable, and an in-flight
// pipeline run pinned to a version is untouched by later registrations,
// re-aliasing or hot reloads.

// LexiconRegistry is a bounded in-process store of immutable lexicon
// versions addressed by content (version ID) or alias, with hot reload
// from a directory. Safe for concurrent use.
type LexiconRegistry = lexicon.Registry

// LexiconVersion describes one registered lexicon version (listing form).
type LexiconVersion = lexicon.Version

// LexiconRegistryStats snapshots a registry's lifecycle counters.
type LexiconRegistryStats = lexicon.RegistryStats

// LexiconDiff itemizes the factual differences between two lexicon
// versions — the payload of the server's upgrade report.
type LexiconDiff = lexicon.DiffReport

// ErrUnknownLexicon reports a lookup of a version ID or alias the
// registry does not hold.
var ErrUnknownLexicon = lexicon.ErrUnknownVersion

// DefaultLexiconAlias names a registry's default version: the embedded
// default lexicon unless SetDefault replaced it.
const DefaultLexiconAlias = lexicon.DefaultAlias

// NewLexiconRegistry returns a registry bounded to max versions (0: the
// package default), pre-loaded with the embedded default lexicon under
// the "default" alias.
func NewLexiconRegistry(max int) *LexiconRegistry { return lexicon.NewRegistry(max) }

// DecodeLexiconArtifact parses either a content-addressed lexicon
// artifact (address verified against the decoded facts) or a plain
// lexicon JSON file, returning the lexicon and its computed version ID.
func DecodeLexiconArtifact(data []byte) (*Lexicon, string, error) { return lexicon.DecodeAny(data) }

// DiffLexicons compares two lexicons fact by fact and reports what an
// upgrade from the first to the second adds and removes.
func DiffLexicons(from, to *Lexicon) LexiconDiff { return lexicon.Diff(from, to) }
