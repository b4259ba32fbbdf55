"""Decoded AndroidManifest.xml parsing into component declarations.

Binary AXML input is rejected outright; decode it with an external tool
first (aapt2 dump, apktool) and feed the plain XML here.
"""

import xml.etree.ElementTree as ET

from .appmodel import COMPONENT_CATEGORIES, Component
from .tables import InputError

_ANDROID_NS = "{http://schemas.android.com/apk/res/android}"
_AXML_MAGIC = "\x03\x00\x08\x00"   # the first four bytes of a binary manifest


class XmlError(InputError):
    """Malformed manifest XML."""


class AxmlUnsupportedError(InputError):
    """Binary AXML input; only decoded plain-text manifests are accepted."""


def _class_name(raw: str, package: str) -> str:
    """Normalize a manifest component name to smali class-name form."""
    if raw.startswith("L") and raw.endswith(";"):
        return raw
    if raw.startswith("."):
        dotted = package + raw
    elif "." not in raw and package:
        dotted = f"{package}.{raw}"
    else:
        dotted = raw
    return "L" + dotted.replace(".", "/") + ";"


def parse_manifest(xml) -> list:
    """Parse decoded manifest XML (str or bytes) into Component objects."""
    text = xml.decode("utf-8", errors="replace") if isinstance(xml, bytes) else xml
    if text.startswith(_AXML_MAGIC):
        raise AxmlUnsupportedError("binary AXML manifest; decode it to plain XML before loading")
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlError(f"malformed manifest XML: {exc}") from exc

    package = root.get("package", "")
    components = []
    application = root.find("application")
    if application is None:
        return components
    for elem in application:
        if elem.tag not in COMPONENT_CATEGORIES:
            continue
        raw_name = elem.get(_ANDROID_NS + "name") or elem.get("name")
        if not raw_name:
            continue
        actions = frozenset(
            a.get(_ANDROID_NS + "name") or a.get("name") or ""
            for a in elem.findall("intent-filter/action")
        ) - {""}
        components.append(Component(_class_name(raw_name, package), elem.tag, actions))
    return components
