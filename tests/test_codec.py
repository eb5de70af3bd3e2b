"""The config JSON codec: pinned bytes for every kind of config object,
and the round trip of every class or constructor the codec reads."""

import hashlib
import json
import typing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from bclab.harness import _config_payload, config_from_json, config_to_json
from bclab.seqcore import JSON_CODECS, _params, from_json, to_json

HARMONIC = {"template": "nested-left",
            "radius": {"template": "powerlog", "c": 1.0, "p": 1.0}}
BASE = {"process": {"variant": "iid"}, "family": HARMONIC, "n": 100,
        "n_traj": 2, "seed": 3}
FULL = {"space": "torus", "lo": 0.0, "hi": 0.0, "full": True}
WRAPPED = {"space": "torus", "lo": 0.8, "hi": 0.1}


def with_radius(seq):
    return {**BASE, "family": {"template": "nested-left", "radius": seq}}


# one config for each process variant, family template, measure kind and
# sequence template; "power" and "constant" read back as "powerlog"
CASES = {
    "process-iid": {**BASE, "process": {"variant": "iid", "marginal": "power",
                                        "power": 2.5}},
    "process-lsv": {**BASE, "process": {"variant": "lsv", "gamma": 0.4}},
    "process-ar-half": {**BASE, "process": {"variant": "ar-half"}},
    "process-circle-rw": {**BASE, "process": {"variant": "circle-rw",
                                              "a": 0.3, "drift": 0.125}},
    "process-split-chain": {**BASE, "process": {
        "variant": "split-chain", "s_kind": "const", "s_scale": 0.5,
        "nu_power": 3.0, "q1": "nu"}},
    "process-dmr": {**BASE, "process": {"variant": "dmr", "a": 2}},
    "family-nested-left": {**BASE, "family": {**HARMONIC, "space": "torus"},
                           "checkpoints": [1, 10, 100], "out_dir": "runs/x"},
    "family-nested-window": {**BASE, "family": {
        "template": "nested-window",
        "left": {"template": "constant", "c": 0.25},
        "right": {"template": "power", "c": 0.75, "p": 0.5}}},
    "family-torus-consecutive": {**BASE, "family": {
        "template": "torus-consecutive", "b0": 0.37,
        "steps": {"template": "geometric", "c": 0.5, "r": 0.9}}},
    "family-custom": {**BASE, "family": {
        "template": "custom", "space": "torus",
        "intervals": [FULL, WRAPPED] * 50}},
    "measure-lebesgue": {**BASE, "measure": {"support": [-1, 1]}},
    "measure-power": {**BASE, "measure": {"kind": "power", "a": 0.5},
                      "n_traj": 100, "criteria": ["f-ii", "f-variance"]},
    "measure-tabulated": {**BASE, "measure": {
        "kind": "tabulated", "xs": [0.0, 0.5, 1.0], "Fs": [0.0, 0.8, 1.0]}},
    "sequence-powerlog": with_radius({"c": 2.0, "p": 1.0, "q": 1.0,
                                      "shift": 1.0, "start": 1}),
    "sequence-geometric": with_radius({"template": "geometric", "c": 1.0,
                                       "r": 0.9, "start": 1}),
    "sequence-tabulated": with_radius({"template": "tabulated",
                                       "values": [0.5, 0.25] * 60}),
    "sequence-power": with_radius({"template": "power", "c": 1.0, "p": 0.5}),
    "sequence-constant": with_radius({"template": "constant", "c": 0.5}),
}

# sha256 of _config_payload, of the config.json text and of the JSON in
# the order the codec writes its keys (the order summary.md prints)
PINS = {
    "family-custom": (
        "30d9bd0dbc658b50a2748e5b5c344e7ce3d29c01f23f743118c358eeee6e5867",
        "407eabcee068d4b39c959e938bb6b293f98c761883d966deafdb55551f2fb627",
        "7c236776f3c58a7ab960f47fa47589c47c7e3e7dede5d38899d1e42c7ea3336f",
    ),
    "family-nested-left": (
        "8f3c851b8833bfaa95595bfd9bead86bc77fd85f6b9b157163648d6d54ff25f4",
        "ad83a5d98a3ab443584fc82dcfe74e5908ef10b50cb2d27700dee0e5ce373646",
        "a37e3cfa73973d502247478d0ac216c4f86370a5f03dc1137d7234430292ea11",
    ),
    "family-nested-window": (
        "3c476e77de86437817f08a61d340ec9c220121bcbb4f1ab8e4dd081808f8ba6e",
        "404016f935624a10a92544e5e30fd2d79683ee9da0a3825683dfeff051060f70",
        "27f4c514c8aef263f83b3275bea89de8794b44e71fd1cb39b2adadf7b538861d",
    ),
    "family-torus-consecutive": (
        "3bf9c081da271f778d0740a04ec3cdd91f5419ccbfcbe0329692c2d85aa2d622",
        "7d2dbb192bc44db336fcc2b1e4530556b4d70e2111eaa80ab06ec129105f7ac5",
        "be1c08fe29be338be8f1904a42a892173f7e2b42d3f70ac92667b91aa41f3e06",
    ),
    "measure-lebesgue": (
        "eb70438893a0d88a43e9ab1a79710b6b1ef169a1966537efc9633dc1caabae69",
        "afd9eb5406f57a351eb29ff437181140c1258c231887ae840eab4d60d7f6e100",
        "252be80aa710a64a92b2a942ec1ebcbe1ceef0b77cfcc96fc8e931b316d8afe3",
    ),
    "measure-power": (
        "5c3a1fdf3e05cee44cea1934405413197326a26462a38714ea9f39fc1070cdce",
        "c2b9c8d2205c66f0676341fc390f64a57855f0af890e782b27613fd7294a0fe6",
        "e811b992c1478852f5334af6a37927393a774766fabd2e3dc1df4040ae9645b1",
    ),
    "measure-tabulated": (
        "330ab3c37fbf5e8130e1e9e2e2231dd5bfae7de14d2a7d0d796e1517474313b7",
        "896d374787ea869c063a0438dbab33dd1fd46895b979655cec7a7aaa33041510",
        "ea6a117c61389432c3ccb27f9e6bc22ee0a2f7a03d4d3fef74a04a4ed0742c37",
    ),
    "process-ar-half": (
        "d193359a919f2a66dfcda14de56867007759adcd61430029be7c3532747812b8",
        "6fd5f307d64d2164ec4609657c07d7ffca4d9b66d98465e4cde616a4c907d52d",
        "056e421268c02ba89e3230356c4c0c2f61237e7ba565c15dcd713a44e342cdc0",
    ),
    "process-circle-rw": (
        "98747ff28e8fdf4ae6fc5b43efa31cd4b0a0ca1e7d48527cce7781a1108e58eb",
        "5f4723a4ba6ca68d0851615fa025924506f8e69d48786dd0535c8043a6c3712c",
        "345f5205105cb4e0e911b6e2c2c360a7475f3236a3554d1f153f6d25b2370014",
    ),
    "process-dmr": (
        "b8868fe1da2f12a905141e8d7467a9f762da4ea9863fdf355875802e0aebe1ae",
        "c6aab11a7b31be0e879aa35c3104842321e529aa0dd68f9eafc05eb705da0b0d",
        "c4f2643d38a8e2f020b5d96ce22aceb9abb50efac401c097ae8d2e99d7bef1b7",
    ),
    "process-iid": (
        "f9bc464938ae7b7435d83fdb8b2dfcc53f4b4dcc74621982eda3c9614eeddf1a",
        "548b8e273867020ed1af7d139d475e5f56c79aae08e26f73bf84b02c82b171ab",
        "ca0e7fad25e69174dd8365083ecc084cb78af102c608359c77941c7b0739f3ee",
    ),
    "process-lsv": (
        "48f18d86ee46229422775b572f630acf24cf354b8940593dcc13d6dfa2a6f583",
        "a96914397c3a6a41347a26d2414552fd4da502e2c14f2694f8cde3091bb7b1af",
        "8a4161ef3ec9dd7324da6857ece7b215f5edbae451664f24252035dabcdb194c",
    ),
    "process-split-chain": (
        "a07946218dd04df45dd0172bd806736d8d9e99762c385250b07ce5e72ec7f24f",
        "44b5fd27dbcb38429c3c328a05ec881a34785024cca29c48627504639e8f2c40",
        "52b150c773ab5e94bc89403b9c771bec56c4563532abe4e8cf69261f154931c0",
    ),
    "sequence-constant": (
        "d3a631189208c26cc3dbcd21842f3c6f230b71d208e69f2e1d5a9f2cb5ff4fe2",
        "c980bb47b636f25b56b0f805238de52b3c3743f3d02d33c8576dc8b4f5e1e618",
        "7fce595ea5dd938c5879a8f622f459f6609c41e26584021cb5bdde3507a7e701",
    ),
    "sequence-geometric": (
        "1f086da2dd8c64ea3c3925644a8a9acb6574258725ec9a28f4aa948f4852cb96",
        "40714631dbc5fe02ef2d1f3af115d0fcf7af1ae83eac52ab8dbac57911523342",
        "342db3a0f2532e5e7ac7a111a57ad7615afddd0766a28799ec78825bace2c934",
    ),
    "sequence-power": (
        "9a50260a9aaa8c243cb59d7d11792b73df786806fbc005ee7330af3b6303c886",
        "8889e10d60f1c28cc3d911c49664bcc5e034c350d0eec06561d72cfbfd3de8af",
        "c3ef5879df900c0235d25aa06ab7a87673a4a3a791769b7b9739aea03ff42c9a",
    ),
    "sequence-powerlog": (
        "0ea983e7f8b9c978951428d9918b02228d3ddf8e944a25fbb8c94c1497db5c3e",
        "3b90ef63b81b5725308f26d67220efbea24cbdc4f977e247a4f677cd987a7246",
        "b0ff0e1bf02a2ce1658cf76c1ad970202d7145152a8f0e1c8833190bc3821f4b",
    ),
    "sequence-tabulated": (
        "c0d153b4aa6f9bb34a4e8148d5bf4ef9e64bacc9ebbe281a12a6861cf695c2a6",
        "0efe0d4da76518aa8733453e4ecc35f65eb5795e563c2e4a5ab72fa6fd996004",
        "4c2a95f5092338a6a02858768245e1d7fb65273eb73c46d9ae22d9b127e3c919",
    ),
}


def sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str)
                          else data).hexdigest()


def config_hashes(cfg) -> tuple:
    text = json.dumps(config_to_json(cfg), sort_keys=True, indent=2) + "\n"
    return (sha(_config_payload(cfg)), sha(text),
            sha(json.dumps(config_to_json(cfg))))


@pytest.mark.parametrize("name", sorted(CASES))
def test_config_bytes_pinned(name):
    assert config_hashes(config_from_json(CASES[name])) == PINS[name]


# every (base class, name) the codec reads: a kind added later is covered
KINDS = [(base, name) for base, codec in JSON_CODECS.items()
         for name in codec.makers]
NUMBERS = [0.0, 0.5, 1.0, 2.0]
SCALARS = {
    bool: st.booleans(),
    int: st.sampled_from([0, 1, 10, 100, 1000]) | st.integers(-2, 2000),
    float: st.sampled_from(NUMBERS) | st.floats(-1.0, 3.0),
    str: st.sampled_from(["f-ii", "runs/x"]) | st.text(max_size=3),
}
# list entries from a small pool, sorted, so that tables, supports,
# checkpoints and criteria are often valid
ENTRIES = {int: [1, 10, 100, 1000], float: NUMBERS, str: ["f-ii", "f-i"]}


def json_values(t):
    """JSON values of the annotated type t, as from_json reads them."""
    args = typing.get_args(t)
    if type(None) in args:
        return st.none() | json_values(args[0])
    if typing.get_origin(t) is typing.Literal:
        return st.sampled_from(args)
    if t is np.ndarray:
        args = (float,)
    elif typing.get_origin(t) is not tuple:
        return valid_json(t) if t in JSON_CODECS else SCALARS[t]
    if args[0] in JSON_CODECS:
        return st.lists(valid_json(args[0]), min_size=1, max_size=3)
    return st.lists(st.sampled_from(ENTRIES[args[0]]), min_size=1,
                    max_size=3, unique=True).map(sorted)


@st.composite
def json_objects(draw, base, name):
    """A JSON object of the class named name: its tag, each required
    parameter and any others."""
    codec = JSON_CODECS[base]
    d = {codec.tag: name} if codec.tag else {}
    for key, t, required in _params(codec.makers[name]):
        if required or draw(st.booleans()):
            d[key] = draw(json_values(t))
    return d


def reads(d, base) -> bool:
    try:
        from_json(d, base)
    except ValueError:
        return False
    return True


def valid_json(base):
    """JSON objects of any class of base that from_json accepts."""
    names = sorted(JSON_CODECS[base].makers, key=str)
    return st.sampled_from(names).flatmap(
        lambda name: json_objects(base, name)).filter(
        lambda d: reads(d, base))


def written(base, name):
    """(JSON text, the name it is written under) of objects read from
    the JSON of the class named name: "power" is written as "powerlog"."""
    def write(d):
        try:
            text = json.dumps(to_json(from_json(d, base)))
        except ValueError:
            reject()
        tag = JSON_CODECS[base].tag
        return text, json.loads(text)[tag] if tag else None
    return json_objects(base, name).map(write)


def fields_of(base, name) -> dict:
    return {key: t for key, t, _ in _params(JSON_CODECS[base].makers[name])}


def kind_id(kind):
    base, name = kind
    return JSON_CODECS[base].what + ("" if name is None else f"-{name}")


PROPERTY = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much,
                                           HealthCheck.too_slow])


@pytest.mark.parametrize("kind", KINDS, ids=map(kind_id, KINDS))
@PROPERTY
@given(data=st.data())
def test_round_trip_keeps_every_byte(kind, data):
    base, name = kind
    text, _ = data.draw(written(base, name))
    again = from_json(json.loads(text), base)
    assert json.dumps(to_json(again)) == text


@pytest.mark.parametrize("kind", KINDS, ids=map(kind_id, KINDS))
@PROPERTY
@given(data=st.data())
def test_extra_key_refused_by_name(kind, data):
    base = kind[0]
    text, name = data.draw(written(base, kind[1]))
    d = json.loads(text)
    extra = data.draw(st.text(min_size=1, max_size=4).filter(
        lambda k: k not in d and k not in fields_of(base, name)))
    with pytest.raises(ValueError) as e:
        from_json({**d, extra: 1}, base)
    assert str(e.value).endswith(f"has unknown fields {[extra]!r}")


def wrong_value(t):
    """A JSON value of another type than t: 5 where t holds strings (a
    str, a Literal of strings, a list of them), else "x"."""
    args = typing.get_args(t)
    if type(None) in args:
        return wrong_value(args[0])
    strings = t is str or any(a is str or isinstance(a, str) for a in args)
    return 5 if strings else "x"


@pytest.mark.parametrize("kind", KINDS, ids=map(kind_id, KINDS))
@PROPERTY
@given(data=st.data())
def test_wrongly_typed_value_refused_by_field(kind, data):
    base = kind[0]
    codec = JSON_CODECS[base]
    text, name = data.draw(written(base, kind[1]))
    d = json.loads(text)
    types = fields_of(base, name)
    keys = sorted(k for k in d if k in types)
    if not keys:
        return
    key = data.draw(st.sampled_from(keys))
    t = types[key]
    args = typing.get_args(t)
    inner = args[0] if type(None) in args else t
    if inner in JSON_CODECS:  # a nested object: its own message
        what = JSON_CODECS[inner].called or JSON_CODECS[inner].what
        error = f"{what} must be a JSON object"
    else:
        where = f"{codec.what} {name!r}" if codec.tag else codec.what
        error = f"{where} {key} must be "
    with pytest.raises(ValueError) as e:
        from_json({**d, key: wrong_value(t)}, base)
    assert str(e.value).startswith(error)
