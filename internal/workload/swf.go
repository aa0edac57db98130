package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// SWF (Standard Workload Format) field indices, per the Parallel Workloads
// Archive definition. Every data line has 18 whitespace-separated fields;
// -1 marks a missing value. The columns the parser does not read are
// blank, named in a comment.
const (
	swfJobNumber = iota
	swfSubmitTime
	_ // wait time
	swfRunTime
	swfAllocProcs
	_ // average CPU time
	_ // used memory
	swfReqProcs
	swfReqTime
	_ // requested memory
	_ // status
	swfUserID
	swfGroupID
	_ // executable number
	swfQueueNumber
	swfPartition
	_ // preceding job number
	_ // think time
	swfNumFields
)

// ParseSWF reads a trace in Standard Workload Format. Header comments of the
// form "; MaxProcs: N" (or "; MaxNodes: N" as a fallback) set the cluster
// size; it can be overridden afterwards by assigning Trace.MaxProcs.
//
// Jobs with no usable runtime or processor count (cancelled entries) are
// skipped, matching how SchedGym loads these logs. If a job
// has no requested (estimated) runtime, the actual runtime is used, so that
// estimate-driven schedulers such as SJF stay well defined.
func ParseSWF(r io.Reader, name string) (*Trace, error) {
	t := &Trace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	lineNo := 0
	var t0 float64
	first := true
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == ';' {
			parseSWFHeader(t, line)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < swfNumFields {
			return nil, fmt.Errorf("swf %s:%d: %d fields, want %d", name, lineNo, len(fields), swfNumFields)
		}
		v := make([]float64, swfNumFields)
		for i := 0; i < swfNumFields; i++ {
			f, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("swf %s:%d field %d: %v", name, lineNo, i, err)
			}
			v[i] = f
		}
		procs := int(v[swfReqProcs])
		if procs <= 0 {
			procs = int(v[swfAllocProcs])
		}
		run := v[swfRunTime]
		est := v[swfReqTime]
		if est <= 0 {
			est = run
		}
		if run < 0 {
			run = est
		}
		if procs <= 0 || run < 0 || est <= 0 {
			continue // cancelled or unusable entry
		}
		if first || v[swfSubmitTime] < t0 {
			// rebase to the earliest submit seen; lines are not guaranteed
			// to be sorted in archive files
			t0 = v[swfSubmitTime]
			first = false
		}
		t.Jobs = append(t.Jobs, Job{
			ID:        int(v[swfJobNumber]),
			Submit:    v[swfSubmitTime],
			Run:       run,
			Est:       est,
			Procs:     procs,
			User:      int(v[swfUserID]),
			Group:     int(v[swfGroupID]),
			Queue:     int(v[swfQueueNumber]),
			Partition: int(v[swfPartition]),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("swf %s: %v", name, err)
	}
	for i := range t.Jobs {
		t.Jobs[i].Submit -= t0
	}
	t.SortBySubmit()
	if t.MaxProcs == 0 {
		for _, j := range t.Jobs {
			if j.Procs > t.MaxProcs {
				t.MaxProcs = j.Procs
			}
		}
	}
	return t, nil
}

func parseSWFHeader(t *Trace, line string) {
	body := strings.TrimLeft(line, "; \t")
	for _, key := range []string{"MaxProcs:", "MaxNodes:"} {
		if strings.HasPrefix(body, key) {
			if n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(body, key))); err == nil && n > 0 {
				if key == "MaxProcs:" || t.MaxProcs == 0 {
					t.MaxProcs = n
				}
			}
		}
	}
}

// WriteSWF writes the trace in Standard Workload Format with a MaxProcs
// header, suitable for consumption by other SWF tools or re-parsing.
func WriteSWF(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "; Trace: %s\n; MaxProcs: %d\n", t.Name, t.MaxProcs)
	for _, j := range t.Jobs {
		// job submit wait run alloc cpu mem reqprocs reqtime reqmem status user group exe queue partition preceding think
		fmt.Fprintf(bw, "%d %.0f -1 %.0f %d -1 -1 %d %.0f -1 1 %d %d -1 %d %d -1 -1\n",
			j.ID, j.Submit, j.Run, j.Procs, j.Procs, j.Est, j.User, j.Group, j.Queue, j.Partition)
	}
	return bw.Flush()
}
