package secpert

import (
	"repro/internal/events"
	"repro/internal/expert"
)

// defineTemplates registers the fact shapes of paper Appendix A.1:
// system_call_access for resource accesses and system_call_io for
// data transfers.
func (s *Secpert) defineTemplates() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(s.eng.DefTemplate(&expert.Template{
		Name: "system_call_access",
		Slots: []expert.SlotDef{
			{Name: "system_call_name"},
			{Name: "resource_name"},
			{Name: "resource_type"},
			{Name: "resource_origin_name", Multi: true},
			{Name: "resource_origin_type", Multi: true},
			{Name: "time", Default: int64(0)},
			{Name: "frequency", Default: int64(0)},
			{Name: "address", Default: ""},
			{Name: "pid", Default: int64(0)},
			{Name: "clone_count", Default: int64(0)},
			{Name: "clone_rate", Default: int64(0)},
			{Name: "mem_bytes", Default: int64(0)},
		},
	}))
	must(s.eng.DefTemplate(&expert.Template{
		Name: "system_call_io",
		Slots: []expert.SlotDef{
			{Name: "system_call_name"},
			{Name: "direction"},
			{Name: "data_source_type", Multi: true},
			{Name: "data_source_name", Multi: true},
			{Name: "resource_name"},
			{Name: "resource_type"},
			{Name: "resource_origin_name", Multi: true},
			{Name: "resource_origin_type", Multi: true},
			{Name: "head", Default: ""},
			{Name: "server", Default: "no"},
			{Name: "server_addr", Default: ""},
			{Name: "server_origin_name", Multi: true},
			{Name: "server_origin_type", Multi: true},
			{Name: "time", Default: int64(0)},
			{Name: "frequency", Default: int64(0)},
			{Name: "address", Default: ""},
			{Name: "pid", Default: int64(0)},
		},
	}))
}

// accessSlots converts an Access event into fact slots. It fills the
// slot map s owns, cleared per event: Assert copies the values out.
func (s *Secpert) accessSlots(ev *events.Access) map[string]expert.Value {
	types, names := sourceLists(ev.Resource.Origin)
	m := s.slots
	clear(m)
	m["system_call_name"] = ev.Call
	m["resource_name"] = ev.Resource.Name
	m["resource_type"] = ev.Resource.Type.String()
	m["resource_origin_name"] = names
	m["resource_origin_type"] = types
	m["time"] = int64(ev.Time)
	m["frequency"] = ev.Freq
	m["address"] = ev.Addr
	m["pid"] = int64(ev.PID)
	m["clone_count"] = ev.CloneCount
	m["clone_rate"] = ev.CloneRate
	m["mem_bytes"] = ev.MemBytes
	return m
}

// ioSlots converts an IO event into fact slots, in the same owned map
// as accessSlots.
func (s *Secpert) ioSlots(ev *events.IO) map[string]expert.Value {
	dTypes, dNames := sourceLists(ev.Data)
	oTypes, oNames := sourceLists(ev.Resource.Origin)
	sTypes, sNames := sourceLists(ev.ServerOrigin)
	server := "no"
	if ev.Server {
		server = "yes"
	}
	m := s.slots
	clear(m)
	m["system_call_name"] = ev.Call
	m["direction"] = ev.Dir.String()
	m["data_source_type"] = dTypes
	m["data_source_name"] = dNames
	m["resource_name"] = ev.Resource.Name
	m["resource_type"] = ev.Resource.Type.String()
	m["resource_origin_name"] = oNames
	m["resource_origin_type"] = oTypes
	m["head"] = string(ev.Head)
	m["server"] = server
	m["server_addr"] = ev.ServerAddr
	m["server_origin_name"] = sNames
	m["server_origin_type"] = sTypes
	m["time"] = int64(ev.Time)
	m["frequency"] = ev.Freq
	m["address"] = ev.Addr
	m["pid"] = int64(ev.PID)
	return m
}
