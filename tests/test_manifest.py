import pytest

from droidflow.manifest import AxmlUnsupportedError, XmlError, parse_manifest

SINGLE_ACTIVITY = """\
<?xml version="1.0" encoding="utf-8"?>
<manifest xmlns:android="http://schemas.android.com/apk/res/android"
    package="com.example">
  <application>
    <activity android:name=".MainActivity"/>
  </application>
</manifest>
"""

BOOT_RECEIVER = """\
<manifest xmlns:android="http://schemas.android.com/apk/res/android"
    package="com.example">
  <application>
    <receiver android:name="com.example.BootReceiver">
      <intent-filter>
        <action android:name="android.intent.action.BOOT_COMPLETED"/>
        <category android:name="android.intent.category.DEFAULT"/>
      </intent-filter>
    </receiver>
  </application>
</manifest>
"""


def test_single_activity_no_filters():
    comps = parse_manifest(SINGLE_ACTIVITY)
    assert len(comps) == 1
    c = comps[0]
    assert c.category == "activity"
    assert c.path_name == "Lcom/example/MainActivity;"
    assert c.actions == frozenset()


def test_receiver_filter_action():
    comps = parse_manifest(BOOT_RECEIVER)
    assert len(comps) == 1
    c = comps[0]
    assert c.category == "receiver"
    assert "android.intent.action.BOOT_COMPLETED" in c.actions


def test_axml_magic_rejected():
    # published binary-XML header: type 0x0003, header size 0x0008
    blob = b"\x03\x00\x08\x00" + b"\x00" * 16
    with pytest.raises(AxmlUnsupportedError):
        parse_manifest(blob)


def test_malformed_xml():
    with pytest.raises(XmlError):
        parse_manifest("<manifest><application></manifest>")


def test_all_four_component_kinds():
    xml = """\
<manifest xmlns:android="http://schemas.android.com/apk/res/android" package="p">
  <application>
    <activity android:name=".A"/>
    <service android:name=".S"/>
    <receiver android:name=".R"/>
    <provider android:name=".P"/>
  </application>
</manifest>
"""
    cats = [c.category for c in parse_manifest(xml)]
    assert cats == ["activity", "service", "receiver", "provider"]
