// Package keyhash is the single definition of what a content key is and
// where it goes.
//
// What a key is: Content, the hex SHA-256 of a value's JSON. Every
// cache key in the repo (the trace corpus key, the job key, the
// warm-state snapshot key) is that hash of some projection of a
// normalized job spec, so "equal values key equal, different values key
// different" is argued once, here: encoding/json writes struct fields in
// declaration order and sorts map keys, so the encoding is canonical.
//
// Where a key goes: Sum32 maps a key to an integer. Both consumers of key
// placement — the service queue's shard router and the cluster's
// consistent-hash ring — hash through here, so a key's queue shard on its
// owning node and its owner in the ring derive from the same
// bytes-to-integer function. It is FNV-1a (32 bit), chosen when the
// sharded queue was built: stable across platforms and Go releases
// (unlike maphash), allocation-free, and uniform enough for both shard
// balancing and ring placement. Changing it would reshard every queue and
// reshuffle every ring segment at once — which is exactly the point of
// sharing it: such a change cannot happen to one consumer and not the
// other.
package keyhash

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Content returns the content hash of v: the lowercase hex SHA-256 of
// its JSON encoding. Stored keys are built from it, so changing the
// construction would orphan every persisted result, stream and snapshot.
func Content(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("keyhash: encoding %T: %w", v, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// FNV-1a 32-bit parameters (FNV is public domain; these match
// hash/fnv.New32a).
const (
	offset32 = 2166136261
	prime32  = 16777619
)

// Sum32 returns the FNV-1a 32-bit hash of key. It is byte-for-byte
// equivalent to hash/fnv.New32a over the same bytes, without the
// allocation of constructing a hash.Hash.
func Sum32(key string) uint32 {
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

// Shard maps a key onto one of n shards. n must be positive.
func Shard(key string, n int) int {
	return int(Sum32(key) % uint32(n))
}
