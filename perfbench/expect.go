package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"

	"qilabel"
)

// expected is what an integration reply must carry: the cache key, the
// Definition 8 class, every cluster's label and the labeled tree.
type expected struct {
	key    string
	class  string
	labels map[string]string
	tree   [32]byte // SHA-256 of the tree's compact JSON
}

// expectedOf computes the answer from an in-process integration result.
func expectedOf(key string, res *qilabel.Result) (expected, error) {
	tree, err := json.Marshal(res.Tree)
	if err != nil {
		return expected{}, fmt.Errorf("encoding expected tree: %w", err)
	}
	return expected{key: key, class: res.Class.String(), labels: res.Labels, tree: sha256.Sum256(tree)}, nil
}

// integrateReply is the checked part of a /v1/integrate reply (session
// results share the shape).
type integrateReply struct {
	Key    string            `json:"key"`
	Class  string            `json:"class"`
	Labels map[string]string `json:"labels"`
	Tree   json.RawMessage   `json:"tree"`
}

// check compares a reply body with the expected answer.
func (e expected) check(body []byte) error {
	var r integrateReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	if r.Key != e.key {
		return fmt.Errorf("key %q, want %q", r.Key, e.key)
	}
	if r.Class != e.class {
		return fmt.Errorf("class %q, want %q", r.Class, e.class)
	}
	if !reflect.DeepEqual(r.Labels, e.labels) && !(len(r.Labels) == 0 && len(e.labels) == 0) {
		return fmt.Errorf("labels differ: got %v, want %v", r.Labels, e.labels)
	}
	var tree bytes.Buffer
	if err := json.Compact(&tree, r.Tree); err != nil {
		return fmt.Errorf("decoding reply tree: %w", err)
	}
	if sha256.Sum256(tree.Bytes()) != e.tree {
		return fmt.Errorf("tree differs from the in-process integration")
	}
	return nil
}

// translateReply mirrors the /v1/translate reply.
type translateReply struct {
	Key        string `json:"key"`
	SubQueries []struct {
		Interface   string `json:"interface"`
		Assignments []struct {
			Label       string   `json:"label"`
			Clusters    []string `json:"clusters"`
			Value       string   `json:"value"`
			Approximate bool     `json:"approximate,omitempty"`
		} `json:"assignments"`
		Unsupported []string `json:"unsupported,omitempty"`
	} `json:"subQueries"`
}

// expectedTranslation renders Result.Translate in the reply's shape and
// decodes it back, so empty and missing lists compare equal the way they
// do on the wire.
func expectedTranslation(key string, subs []qilabel.SubQuery) (translateReply, error) {
	type assignment struct {
		Label       string   `json:"label"`
		Clusters    []string `json:"clusters"`
		Value       string   `json:"value"`
		Approximate bool     `json:"approximate,omitempty"`
	}
	type subQuery struct {
		Interface   string       `json:"interface"`
		Assignments []assignment `json:"assignments"`
		Unsupported []string     `json:"unsupported,omitempty"`
	}
	wire := struct {
		Key        string     `json:"key"`
		SubQueries []subQuery `json:"subQueries"`
	}{Key: key}
	for _, s := range subs {
		sq := subQuery{Interface: s.Interface, Unsupported: s.Unsupported}
		for _, a := range s.Assignments {
			sq.Assignments = append(sq.Assignments, assignment{a.Label, a.Clusters, a.Value, a.Approximate})
		}
		wire.SubQueries = append(wire.SubQueries, sq)
	}
	data, err := json.Marshal(wire)
	if err != nil {
		return translateReply{}, fmt.Errorf("encoding expected translation: %w", err)
	}
	return decodeTranslation(data)
}

func decodeTranslation(body []byte) (translateReply, error) {
	var r translateReply
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("decoding translation: %w", err)
	}
	for i := range r.SubQueries {
		if len(r.SubQueries[i].Assignments) == 0 {
			r.SubQueries[i].Assignments = nil
		}
		for j := range r.SubQueries[i].Assignments {
			if len(r.SubQueries[i].Assignments[j].Clusters) == 0 {
				r.SubQueries[i].Assignments[j].Clusters = nil
			}
		}
	}
	return r, nil
}

// checkTranslation compares a /v1/translate reply body with the expected
// translation.
func checkTranslation(body []byte, want translateReply) error {
	got, err := decodeTranslation(body)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("translation differs from Result.Translate")
	}
	return nil
}
