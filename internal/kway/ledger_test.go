package kway_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// workLedger is the append-only record of the deterministic work
// counts TestFlatCarveWork, TestVCycleWork and TestParfmWork pin, one
// JSON row per change that moves them. The tests compare against the
// last row, so a change that moves work on purpose appends a row
// saying why instead of editing the tests.
const workLedger = "../../results/work_ledger.jsonl"

// ledgerRow is one row of the work ledger.
type ledgerRow struct {
	// Change names what set these counts.
	Change    string     `json:"change"`
	FlatCarve flatWork   `json:"flat_carve"`
	VCycle    vcycleWork `json:"vcycle"`
	// Parfm is absent from rows written before it was pinned, which
	// decode it as zero.
	Parfm parfmWork `json:"parfm"`
}

// lastLedgerRow reads the work ledger and returns its last row. Every
// row must decode with no unknown field.
func lastLedgerRow(t *testing.T) ledgerRow {
	t.Helper()
	data, err := os.ReadFile(workLedger)
	if err != nil {
		t.Fatal(err)
	}
	var last ledgerRow
	rows := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var row ledgerRow
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&row); err != nil {
			t.Fatalf("%s row %d: %v", workLedger, rows+1, err)
		}
		last = row
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatalf("%s has no rows", workLedger)
	}
	return last
}
