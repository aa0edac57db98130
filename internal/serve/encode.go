package serve

import (
	"math"
	"strconv"
)

// appendInspectResponse appends the bytes json.NewEncoder(w).Encode(resp)
// writes for an InspectResponse: encoding/json's float format ('f', or 'e'
// below 1e-6 and from 1e21 with the exponent's leading zero dropped) and the
// trailing newline. NaN and ±Inf have no JSON form; the caller keeps those
// on encoding/json, whose error behaviour is the contract.
func appendInspectResponse(b []byte, resp InspectResponse) []byte {
	b = append(b, `{"reject":`...)
	b = strconv.AppendBool(b, resp.Reject)
	b = append(b, `,"reject_prob":`...)
	f := resp.RejectProb
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9, as encoding/json cleans it up
		if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return append(b, '}', '\n')
}
