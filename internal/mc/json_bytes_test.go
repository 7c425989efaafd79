package mc_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"catpa/internal/mc"
	"catpa/internal/serve"
)

// TestTaskSetJSONBytes pins the bytes encoding/json writes for task
// sets: the mcgen files (MarshalIndent), the /v1/admit bodies whose
// SHA-256 digest keys the verdict cache (Marshal) and json.Encoder
// streams. The literals were captured when TaskSet still had
// a pass-through MarshalJSON, so they also pin that removing it left
// the wire format alone, HTML escaping of names included. The test
// sits in package mc_test so that it can encode a serve.Request.
func TestTaskSetJSONBytes(t *testing.T) {
	fixed := &mc.TaskSet{Tasks: []mc.Task{
		{ID: 1, WCET: []float64{1.5}, Period: 10, Crit: 1},
		{ID: 2, Name: `<a&b> "x"`, WCET: []float64{1, 2, 3.25, 4e-7}, Period: 40, Crit: 4},
	}}
	cases := []struct {
		name            string
		v               any
		compact, indent string
	}{
		{"fixed set", fixed,
			`{"tasks":[{"id":1,"wcet":[1.5],"period":10,"crit":1},` +
				`{"id":2,"name":"\u003ca\u0026b\u003e \"x\"","wcet":[1,2,3.25,4e-7],"period":40,"crit":4}]}`,
			`{
  "tasks": [
    {
      "id": 1,
      "wcet": [
        1.5
      ],
      "period": 10,
      "crit": 1
    },
    {
      "id": 2,
      "name": "\u003ca\u0026b\u003e \"x\"",
      "wcet": [
        1,
        2,
        3.25,
        4e-7
      ],
      "period": 40,
      "crit": 4
    }
  ]
}`},
		{"zero set", &mc.TaskSet{}, `{"tasks":null}`, `{
  "tasks": null
}`},
		{"empty set", &mc.TaskSet{Tasks: []mc.Task{}}, `{"tasks":[]}`, `{
  "tasks": []
}`},
		{"request without set", &serve.Request{M: 4, Tag: "<t>"},
			`{"task_set":null,"m":4,"tag":"\u003ct\u003e"}`, `{
  "task_set": null,
  "m": 4,
  "tag": "\u003ct\u003e"
}`},
	}
	for _, tc := range cases {
		if got, err := json.Marshal(tc.v); err != nil || string(got) != tc.compact {
			t.Errorf("%s: Marshal = %s, %v; want %s", tc.name, got, err, tc.compact)
		}
		if got, err := json.MarshalIndent(tc.v, "", "  "); err != nil || string(got) != tc.indent {
			t.Errorf("%s: MarshalIndent = %s, %v; want %s", tc.name, got, err, tc.indent)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(tc.v); err != nil || buf.String() != tc.compact+"\n" {
			t.Errorf("%s: Encoder = %s, %v; want %s", tc.name, buf.Bytes(), err, tc.compact)
		}
	}
}
