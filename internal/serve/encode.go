package serve

import (
	"strconv"

	"schedinspector/internal/obs"
)

// appendInspectResponse appends the bytes json.NewEncoder(w).Encode(resp)
// writes for an InspectResponse, trailing newline included, with
// encoding/json's float rule from obs.AppendJSONFloat. NaN and ±Inf have no
// JSON form; the caller keeps those on encoding/json, whose error behaviour
// is the contract.
func appendInspectResponse(b []byte, resp InspectResponse) []byte {
	b = append(b, `{"reject":`...)
	b = strconv.AppendBool(b, resp.Reject)
	b = append(b, `,"reject_prob":`...)
	b = obs.AppendJSONFloat(b, resp.RejectProb)
	return append(b, '}', '\n')
}

// appendExplainLast appends the bytes json.NewEncoder(w).Encode(resp)
// writes, trailing newline included, each record through the flight-trace
// record appender. A record holding NaN or ±Inf fails it with
// encoding/json's error and dst returned as it was, as Encode writes
// nothing then.
func appendExplainLast(dst []byte, resp *ExplainLastResponse) ([]byte, error) {
	b := strconv.AppendUint(append(dst, `{"total":`...), resp.Total, 10)
	b = append(b, `,"feature_names":`...)
	if resp.FeatureNames == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, name := range resp.FeatureNames {
			if i > 0 {
				b = append(b, ',')
			}
			b = obs.AppendJSONString(b, name)
		}
		b = append(b, ']')
	}
	b = append(b, `,"records":`...)
	if resp.Records == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range resp.Records {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = obs.AppendExplainRecordJSON(b, &resp.Records[i]); err != nil {
				return dst, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n'), nil
}
