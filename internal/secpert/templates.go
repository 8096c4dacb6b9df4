package secpert

import (
	"repro/internal/events"
	"repro/internal/expert"
)

// The fact shapes of paper Appendix A.1: system_call_access for
// resource accesses and system_call_io for data transfers. Each slot's
// position is a constant, so an event fills its fact by position
// without naming slots (expert.Engine.AssertValues).

// system_call_access slot positions.
const (
	aCall = iota
	aName
	aType
	aOriginName
	aOriginType
	aTime
	aFreq
	aAddr
	aPID
	aCloneCount
	aCloneRate
	aMemBytes
	accessSlotCount
)

// system_call_io slot positions.
const (
	ioCall = iota
	ioDir
	ioDataType
	ioDataName
	ioName
	ioType
	ioOriginName
	ioOriginType
	ioHead
	ioServer
	ioServerAddr
	ioServerOriginName
	ioServerOriginType
	ioTime
	ioFreq
	ioAddr
	ioPID
	ioSlotCount
)

var accessTemplate = &expert.Template{
	Name: "system_call_access",
	Slots: []expert.SlotDef{
		aCall:       {Name: "system_call_name"},
		aName:       {Name: "resource_name"},
		aType:       {Name: "resource_type"},
		aOriginName: {Name: "resource_origin_name", Multi: true},
		aOriginType: {Name: "resource_origin_type", Multi: true},
		aTime:       {Name: "time", Default: int64(0)},
		aFreq:       {Name: "frequency", Default: int64(0)},
		aAddr:       {Name: "address", Default: ""},
		aPID:        {Name: "pid", Default: int64(0)},
		aCloneCount: {Name: "clone_count", Default: int64(0)},
		aCloneRate:  {Name: "clone_rate", Default: int64(0)},
		aMemBytes:   {Name: "mem_bytes", Default: int64(0)},
	},
}

var ioTemplate = &expert.Template{
	Name: "system_call_io",
	Slots: []expert.SlotDef{
		ioCall:             {Name: "system_call_name"},
		ioDir:              {Name: "direction"},
		ioDataType:         {Name: "data_source_type", Multi: true},
		ioDataName:         {Name: "data_source_name", Multi: true},
		ioName:             {Name: "resource_name"},
		ioType:             {Name: "resource_type"},
		ioOriginName:       {Name: "resource_origin_name", Multi: true},
		ioOriginType:       {Name: "resource_origin_type", Multi: true},
		ioHead:             {Name: "head", Default: ""},
		ioServer:           {Name: "server", Default: "no"},
		ioServerAddr:       {Name: "server_addr", Default: ""},
		ioServerOriginName: {Name: "server_origin_name", Multi: true},
		ioServerOriginType: {Name: "server_origin_type", Multi: true},
		ioTime:             {Name: "time", Default: int64(0)},
		ioFreq:             {Name: "frequency", Default: int64(0)},
		ioAddr:             {Name: "address", Default: ""},
		ioPID:              {Name: "pid", Default: int64(0)},
	},
}

// accessValues converts an Access event into fact values, by slot
// position. The engine keeps the slice.
func accessValues(ev *events.Access) []expert.Value {
	types, names := sourceLists(ev.Resource.Origin)
	v := make([]expert.Value, accessSlotCount)
	v[aCall] = ev.Call
	v[aName] = ev.Resource.Name
	v[aType] = ev.Resource.Type.String()
	v[aOriginName] = names
	v[aOriginType] = types
	v[aTime] = int64(ev.Time)
	v[aFreq] = ev.Freq
	v[aAddr] = ev.Addr
	v[aPID] = int64(ev.PID)
	v[aCloneCount] = ev.CloneCount
	v[aCloneRate] = ev.CloneRate
	v[aMemBytes] = ev.MemBytes
	return v
}

// ioValues converts an IO event into fact values, by slot position.
func ioValues(ev *events.IO) []expert.Value {
	dTypes, dNames := sourceLists(ev.Data)
	oTypes, oNames := sourceLists(ev.Resource.Origin)
	sTypes, sNames := sourceLists(ev.ServerOrigin)
	server := "no"
	if ev.Server {
		server = "yes"
	}
	v := make([]expert.Value, ioSlotCount)
	v[ioCall] = ev.Call
	v[ioDir] = ev.Dir.String()
	v[ioDataType] = dTypes
	v[ioDataName] = dNames
	v[ioName] = ev.Resource.Name
	v[ioType] = ev.Resource.Type.String()
	v[ioOriginName] = oNames
	v[ioOriginType] = oTypes
	v[ioHead] = string(ev.Head)
	v[ioServer] = server
	v[ioServerAddr] = ev.ServerAddr
	v[ioServerOriginName] = sNames
	v[ioServerOriginType] = sTypes
	v[ioTime] = int64(ev.Time)
	v[ioFreq] = ev.Freq
	v[ioAddr] = ev.Addr
	v[ioPID] = int64(ev.PID)
	return v
}
