package fleet

import (
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"

	"github.com/carbonsched/gaia/internal/runcache"
)

// MaxBlobBytes bounds one cache entry on the wire. A 200k-job cell — the
// largest /v1/simulate accepts — encodes to ~10 MB; 64 MB leaves headroom
// without letting a confused client buffer gigabytes.
const MaxBlobBytes = 64 << 20

// CacheServer speaks the tier's minimal HTTP protocol over one member's
// shard, its run cache's store (runcache.Cache.Blob and PutBlob):
//
//	GET /v1/cache/{fp}    → 200 + raw blob | 404
//	PUT /v1/cache/{fp}    → 204 | 400 (bad key or blob) | 413 (too large)
//	GET /v1/cache/stats   → 200 + JSON runcache.StoreStats
//
// {fp} is the 64-hex-char cell fingerprint. Blobs are the internal/metrics
// accumulator codec — already versioned and checksummed — so the wire
// format needs no envelope of its own. PUT bodies are strictly validated:
// a blob that does not decode is rejected with 400, which keeps one
// misbehaving replica from poisoning the shard (peers would only detect
// the damage at read time, as a recompute).
type CacheServer struct{ cache *runcache.Cache }

// NewCacheServer serves cache's store as a shard.
func NewCacheServer(cache *runcache.Cache) *CacheServer { return &CacheServer{cache: cache} }

// Register mounts the protocol on mux.
func (cs *CacheServer) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/cache/stats", cs.handleStats)
	mux.HandleFunc("GET /v1/cache/{fp}", cs.handleGet)
	mux.HandleFunc("PUT /v1/cache/{fp}", cs.handlePut)
}

// Handler returns a standalone handler serving only the cache protocol
// (cmd/gaia-cached).
func (cs *CacheServer) Handler() http.Handler {
	mux := http.NewServeMux()
	cs.Register(mux)
	return mux
}

// parseFingerprint decodes the path's {fp} element: exactly 64 hex chars.
func parseFingerprint(s string) (fp [32]byte, ok bool) {
	if len(s) != 64 {
		return fp, false
	}
	if _, err := hex.Decode(fp[:], []byte(s)); err != nil {
		return fp, false
	}
	return fp, true
}

func (cs *CacheServer) handleGet(w http.ResponseWriter, r *http.Request) {
	fp, ok := parseFingerprint(r.PathValue("fp"))
	if !ok {
		http.Error(w, "bad fingerprint", http.StatusBadRequest)
		return
	}
	blob := cs.cache.Blob(fp)
	if blob == nil {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(blob)
}

func (cs *CacheServer) handlePut(w http.ResponseWriter, r *http.Request) {
	fp, ok := parseFingerprint(r.PathValue("fp"))
	if !ok {
		http.Error(w, "bad fingerprint", http.StatusBadRequest)
		return
	}
	blob, err := io.ReadAll(io.LimitReader(r.Body, MaxBlobBytes+1))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(blob) > MaxBlobBytes {
		http.Error(w, "blob exceeds size limit", http.StatusRequestEntityTooLarge)
		return
	}
	if err := cs.cache.PutBlob(fp, blob); err != nil {
		http.Error(w, "invalid blob: "+err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (cs *CacheServer) handleStats(w http.ResponseWriter, _ *http.Request) {
	b, _ := json.Marshal(cs.cache.Stats())
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}
