package perfmodel

import "encoding/json"

// SaveRegistry and LoadRegistry are the registry's JSON form as the
// persistence tests read it: a WireRegistry encoded and decoded by
// encoding/json, as `dlrmperf-train -o` writes it and an asset payload
// embeds it.

func SaveRegistry(r *Registry) ([]byte, error) {
	w, err := r.Wire()
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

func LoadRegistry(data []byte) (*Registry, error) {
	var w WireRegistry
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return w.Registry()
}
